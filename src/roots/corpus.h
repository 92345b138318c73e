#pragma once

// Sharded multi-file DITL corpus: N NCD1/NCP1 member files described by a
// text manifest with per-file CRCs. A real DITL collection is delivered as
// many capture files per root letter and site, not one trace; the corpus
// is that shape. `CorpusWriter` rotates records into member files and
// emits the manifest; `CorpusView` opens every member zero-copy (one
// `TraceView`/`PacketTraceView` each) so a scan can partition records
// *across* files and work-steal chunks between them.
//
// Manifest format (text, one member per line, paths relative to the
// manifest's directory):
//
//   NCCORPUS v1
//   <file>\t<ncd1|ncp1>\t<records>\t<bytes>\t<crc32 hex>
//
// Tolerance contract mirrors the trace readers: a member that cannot be
// opened (missing file, bad magic) is skipped and counted, with its
// declared records added to `records_skipped` — never fatal. CRC
// verification is opt-in (it reads every byte, which the zero-copy open
// deliberately avoids); a mismatch under `verify_crc` also skips the
// member, because a corrupt byte anywhere can desync the unframed NCD1
// record stream. `corpusctl verify` is the strict complement.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "roots/packet_trace.h"
#include "roots/trace.h"
#include "roots/trace_image.h"
#include "roots/trace_view.h"

namespace netclients::roots {

std::string_view corpus_format_name(CorpusFormat format);

/// One manifest row.
struct CorpusMember {
  std::string file;  // relative to the manifest's directory
  CorpusFormat format = CorpusFormat::kNcd1;
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;  // crc32 of the whole member file

  friend bool operator==(const CorpusMember&, const CorpusMember&) = default;
};

struct CorpusManifest {
  std::vector<CorpusMember> members;

  std::uint64_t total_records() const;
  std::uint64_t total_bytes() const;

  /// Serialises to the manifest text. Deterministic: equal manifests
  /// encode to equal bytes.
  std::string encode() const;
  /// Parses manifest text. Returns nullopt on a bad magic line or any
  /// malformed row (the manifest is tiny and authored by our tools, so it
  /// is validated strictly — tolerance lives at the member level).
  static std::optional<CorpusManifest> decode(std::string_view text);

  bool write(const std::string& path) const;
  static std::optional<CorpusManifest> read(const std::string& path);
};

/// Streams TraceRecords into rotating member files next to the manifest.
/// Member i of manifest `corpus.manifest` is named
/// `corpus.000.ncd1` / `corpus.001.ncp1` / ... (stem shared with the
/// manifest). Deterministic: the member split depends only on the record
/// stream and `records_per_member`.
///
/// `add` encodes each record straight into the open member's file image
/// (a `TraceImage`), so the writer holds that member's bytes and no
/// records. A member is written once, when it closes; its manifest size
/// and CRC come from the image in memory, not from re-reading the file.
class CorpusWriter {
 public:
  struct Options {
    CorpusFormat format = CorpusFormat::kNcd1;
    /// Rotate after this many records (0 ⇒ never rotate: one member).
    std::uint64_t records_per_member = 0;
  };

  CorpusWriter(std::string manifest_path, Options options);

  /// Encodes one record into the open member, closing it when full.
  void add(const TraceRecord& record);

  /// Forces a member boundary after the records added so far (no-op when
  /// the open member is empty). Lets callers control the split exactly
  /// instead of relying on the rotation threshold.
  void rotate();

  /// Flushes the final member and writes the manifest. Returns false on
  /// any I/O failure (the manifest is not written in that case).
  bool finish();

  const CorpusManifest& manifest() const { return manifest_; }

 private:
  bool flush_member();

  std::string manifest_path_;
  std::string dir_;   // manifest directory (with trailing '/' when non-empty)
  std::string stem_;  // manifest filename minus extension
  Options options_;
  TraceImage member_;  // the open member's file bytes
  CorpusManifest manifest_;
  bool failed_ = false;
};

/// Convenience: split `records` across `files` members of near-equal size
/// (member i gets records [i*n/files, (i+1)*n/files) — the same boundary
/// arithmetic as exec's block partitions) and write manifest + members.
bool write_corpus(const std::string& manifest_path,
                  const std::vector<TraceRecord>& records,
                  std::size_t files,
                  CorpusFormat format = CorpusFormat::kNcd1);

/// A corpus opened for scanning: the manifest plus one zero-copy view per
/// readable member. Move-only (owns the mappings).
class CorpusView {
 public:
  struct OpenOptions {
    FileBytes::Backing backing = FileBytes::Backing::kAuto;
    /// Re-read every member's bytes and check the manifest CRC before
    /// trusting it. Off by default: it defeats the point of mmap for the
    /// scan path; turn it on in tools and verification jobs.
    bool verify_crc = false;
  };

  struct Member {
    CorpusMember meta;
    /// Exactly one of these is engaged for a readable member (by format);
    /// both empty means the member was skipped.
    std::optional<TraceView> trace;
    std::optional<PacketTraceView> packets;

    bool readable() const { return trace.has_value() || packets.has_value(); }
  };

  struct OpenStats {
    std::uint64_t members_opened = 0;
    std::uint64_t members_skipped = 0;
    std::uint64_t crc_mismatches = 0;
    /// Declared records of skipped members (they were promised by the
    /// manifest but cannot be scanned).
    std::uint64_t records_skipped = 0;

    friend bool operator==(const OpenStats&, const OpenStats&) = default;
  };

  /// Opens the manifest and every member. Returns nullopt only when the
  /// manifest itself cannot be read or parsed; member damage is tolerated
  /// per the header comment.
  static std::optional<CorpusView> open(const std::string& manifest_path,
                                        OpenOptions options);
  static std::optional<CorpusView> open(const std::string& manifest_path);

  const std::vector<Member>& members() const { return members_; }
  const OpenStats& stats() const { return stats_; }

  /// Sum of declared record counts over *readable* members.
  std::uint64_t declared_records() const;
  /// Sum of record-region bytes over readable members.
  std::uint64_t payload_bytes() const;

 private:
  CorpusView() = default;

  std::vector<Member> members_;
  OpenStats stats_;
};

inline std::optional<CorpusView> CorpusView::open(
    const std::string& manifest_path) {
  return open(manifest_path, OpenOptions());
}

}  // namespace netclients::roots
