#include "roots/corpus.h"

#include <charconv>
#include <cstdio>

#include "core/obs/obs.h"
#include "net/crc32.h"

namespace netclients::roots {
namespace {

constexpr std::string_view kMagicLine = "NCCORPUS v1";

std::optional<CorpusFormat> parse_format(std::string_view token) {
  if (token == "ncd1") return CorpusFormat::kNcd1;
  if (token == "ncp1") return CorpusFormat::kNcp1;
  return std::nullopt;
}

template <typename T>
bool parse_number(std::string_view token, T* out, int base = 10) {
  const char* first = token.data();
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(first, last, *out, base);
  return ec == std::errc() && ptr == last;
}

/// Splits "dir/name.ext" into dir (with trailing '/', possibly empty) and
/// the extension-free stem.
void split_manifest_path(const std::string& path, std::string* dir,
                         std::string* stem) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t name_begin = slash == std::string::npos ? 0 : slash + 1;
  *dir = path.substr(0, name_begin);
  std::string name = path.substr(name_begin);
  const std::size_t dot = name.find_last_of('.');
  *stem = dot == std::string::npos || dot == 0 ? name : name.substr(0, dot);
}

std::optional<std::uint32_t> file_crc(const std::string& path) {
  // Buffer-backed read: CRC verification touches every byte anyway, and a
  // throwaway mapping would just add page-table churn.
  auto bytes = FileBytes::open(path, FileBytes::Backing::kBuffer);
  if (!bytes) return std::nullopt;
  return net::crc32(std::string_view(bytes->data(), bytes->size()));
}

}  // namespace

std::string_view corpus_format_name(CorpusFormat format) {
  return format == CorpusFormat::kNcp1 ? "ncp1" : "ncd1";
}

std::uint64_t CorpusManifest::total_records() const {
  std::uint64_t total = 0;
  for (const CorpusMember& m : members) total += m.records;
  return total;
}

std::uint64_t CorpusManifest::total_bytes() const {
  std::uint64_t total = 0;
  for (const CorpusMember& m : members) total += m.bytes;
  return total;
}

std::string CorpusManifest::encode() const {
  std::string out(kMagicLine);
  out.push_back('\n');
  char crc_hex[16];
  for (const CorpusMember& m : members) {
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", m.crc);
    out += m.file;
    out.push_back('\t');
    out += corpus_format_name(m.format);
    out.push_back('\t');
    out += std::to_string(m.records);
    out.push_back('\t');
    out += std::to_string(m.bytes);
    out.push_back('\t');
    out += crc_hex;
    out.push_back('\n');
  }
  return out;
}

std::optional<CorpusManifest> CorpusManifest::decode(std::string_view text) {
  CorpusManifest manifest;
  std::size_t pos = 0;
  bool saw_magic = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!saw_magic) {
      if (line != kMagicLine) return std::nullopt;
      saw_magic = true;
      continue;
    }
    if (line.empty()) continue;
    // <file>\t<format>\t<records>\t<bytes>\t<crc hex>
    std::vector<std::string_view> fields;
    std::size_t field_pos = 0;
    while (fields.size() < 5 && field_pos <= line.size()) {
      std::size_t tab = line.find('\t', field_pos);
      if (tab == std::string_view::npos) tab = line.size();
      fields.push_back(line.substr(field_pos, tab - field_pos));
      field_pos = tab + 1;
    }
    // Exactly five fields: text after the fifth is damage, not a comment.
    if (fields.size() != 5 || field_pos <= line.size() || fields[0].empty()) {
      return std::nullopt;
    }
    CorpusMember member;
    member.file = std::string(fields[0]);
    const auto format = parse_format(fields[1]);
    if (!format) return std::nullopt;
    member.format = *format;
    if (!parse_number(fields[2], &member.records)) return std::nullopt;
    if (!parse_number(fields[3], &member.bytes)) return std::nullopt;
    if (!parse_number(fields[4], &member.crc, 16)) return std::nullopt;
    manifest.members.push_back(std::move(member));
  }
  if (!saw_magic) return std::nullopt;
  return manifest;
}

bool CorpusManifest::write(const std::string& path) const {
  return write_file(path, encode());
}

std::optional<CorpusManifest> CorpusManifest::read(const std::string& path) {
  auto bytes = FileBytes::open(path, FileBytes::Backing::kBuffer);
  if (!bytes) return std::nullopt;
  return decode(std::string_view(bytes->data(), bytes->size()));
}

// --------------------------------------------------------------- writer

CorpusWriter::CorpusWriter(std::string manifest_path, Options options)
    : manifest_path_(std::move(manifest_path)),
      options_(options),
      member_(options.format) {
  split_manifest_path(manifest_path_, &dir_, &stem_);
}

void CorpusWriter::add(const TraceRecord& record) {
  if (!member_.add(record)) failed_ = true;
  if (options_.records_per_member > 0 &&
      member_.records() >= options_.records_per_member) {
    if (!flush_member()) failed_ = true;
  }
}

void CorpusWriter::rotate() {
  if (!flush_member()) failed_ = true;
}

bool CorpusWriter::flush_member() {
  if (member_.records() == 0) return true;
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "%03zu", manifest_.members.size());
  CorpusMember member;
  member.format = options_.format;
  member.file = stem_ + "." + suffix + "." +
                std::string(corpus_format_name(options_.format));
  member.records = member_.records();
  member.bytes = member_.bytes().size();
  member.crc = net::crc32(member_.bytes());
  const bool ok = write_file(dir_ + member.file, member_.bytes());
  member_.clear();
  if (!ok) return false;
  manifest_.members.push_back(std::move(member));
  return true;
}

bool CorpusWriter::finish() {
  if (!flush_member()) failed_ = true;
  if (failed_) return false;
  return manifest_.write(manifest_path_);
}

bool write_corpus(const std::string& manifest_path,
                  const std::vector<TraceRecord>& records, std::size_t files,
                  CorpusFormat format) {
  if (files == 0) files = 1;
  CorpusWriter::Options options;
  options.format = format;
  CorpusWriter writer(manifest_path, options);
  // Explicit near-equal split (block-partition arithmetic) rather than a
  // rotation threshold, so the member count is exactly `files` even when
  // records % files != 0 (empty splits — records < files — collapse, since
  // rotate() is a no-op with nothing pending).
  const std::size_t n = records.size();
  for (std::size_t f = 0; f < files; ++f) {
    const std::size_t begin = n * f / files;
    const std::size_t end = n * (f + 1) / files;
    for (std::size_t i = begin; i < end; ++i) writer.add(records[i]);
    writer.rotate();
  }
  return writer.finish();
}

// ----------------------------------------------------------------- view

std::optional<CorpusView> CorpusView::open(const std::string& manifest_path,
                                           OpenOptions options) {
  static obs::Counter& opened_metric =
      obs::Registry::global().counter("roots.corpus.members_opened");

  auto manifest = CorpusManifest::read(manifest_path);
  if (!manifest) return std::nullopt;

  std::string dir, stem;
  split_manifest_path(manifest_path, &dir, &stem);

  CorpusView view;
  view.members_.reserve(manifest->members.size());
  for (CorpusMember& meta : manifest->members) {
    Member member;
    member.meta = std::move(meta);
    const std::string path = dir + member.meta.file;
    bool crc_ok = true;
    if (options.verify_crc) {
      const auto crc = file_crc(path);
      crc_ok = crc.has_value() && *crc == member.meta.crc;
      if (!crc_ok) ++view.stats_.crc_mismatches;
    }
    if (crc_ok) {
      if (member.meta.format == CorpusFormat::kNcp1) {
        member.packets = PacketTraceView::open(path, options.backing);
      } else {
        member.trace = TraceView::open(path, options.backing);
      }
    }
    if (member.readable()) {
      ++view.stats_.members_opened;
    } else {
      ++view.stats_.members_skipped;
      view.stats_.records_skipped += member.meta.records;
    }
    view.members_.push_back(std::move(member));
  }
  opened_metric.add(view.stats_.members_opened);
  if (view.stats_.members_skipped > 0) {
    // Lazily instantiated like the trace readers' skip counters: a clean
    // corpus run's metric export stays byte-identical whether or not any
    // damage was ever seen.
    static obs::Counter& skipped_metric =
        obs::Registry::global().counter("roots.corpus.members_skipped");
    skipped_metric.add(view.stats_.members_skipped);
  }
  return view;
}

std::uint64_t CorpusView::declared_records() const {
  std::uint64_t total = 0;
  for (const Member& m : members_) {
    if (!m.readable()) continue;
    total += m.trace ? m.trace->declared_count() : m.packets->declared_count();
  }
  return total;
}

std::uint64_t CorpusView::payload_bytes() const {
  std::uint64_t total = 0;
  for (const Member& m : members_) {
    if (!m.readable()) continue;
    total += m.trace ? m.trace->payload_bytes() : m.packets->payload_bytes();
  }
  return total;
}

}  // namespace netclients::roots
