#pragma once

// One trace file, NCD1 or NCP1, encoded in memory as records arrive: the
// 12-byte header (4-byte magic, u64 record count) followed by the
// records. It is the only encoder of either format — `TraceFile::write`,
// `write_packet_trace` and `CorpusWriter` all write an image's bytes — so
// the same records make the same file whichever of them writes it.

#include <cstdint>
#include <string>
#include <string_view>

#include "dns/packet.h"
#include "roots/trace.h"

namespace netclients::roots {

enum class CorpusFormat : std::uint8_t { kNcd1 = 0, kNcp1 = 1 };

class TraceImage {
 public:
  explicit TraceImage(CorpusFormat format);

  /// Encodes one record after the previous ones and updates the header
  /// count. NCP1 frames the record as the RD=0 query a root server would
  /// capture, whose message id is the low 16 bits of the record's index in
  /// this image. The query is written in place, byte for byte what
  /// `dns::encode_into(dns::make_query(id, qname, qtype, false))` gives: a
  /// one-question header, the name's labels uncompressed, QTYPE and class
  /// IN. Returns false, leaving the image unchanged, when that query does
  /// not fit a frame (never the case for a valid name).
  bool add(const TraceRecord& record);

  std::uint64_t records() const { return records_; }

  /// The whole file: header, then every record added since the last
  /// clear(). Valid until the next add() or clear().
  std::string_view bytes() const { return bytes_; }

  /// Drops the records (back to a bare header), keeping the buffer's
  /// capacity for the next file.
  void clear();

 private:
  CorpusFormat format_;
  std::string bytes_;
  std::uint64_t records_ = 0;
};

}  // namespace netclients::roots
