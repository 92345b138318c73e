#pragma once

// Whole-file NCD1 helpers for the trace suites. The library reads traces
// only through `TraceView` and writes them only through `TraceImage` (a
// corpus member or `write_packet_trace`); these two put a lone file's
// records in and out of a std::vector, for tests that build, damage and
// compare small traces.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "roots/file_bytes.h"
#include "roots/trace.h"
#include "roots/trace_image.h"
#include "roots/trace_view.h"

namespace netclients::roots::trace_testing {

/// The whole of `path` in one read (empty when it cannot be read). The
/// suites damage and compare files of tens of megabytes, which a
/// byte-at-a-time stream read takes seconds to load under
/// ThreadSanitizer.
inline std::string read_bytes(const std::string& path) {
  const auto file = FileBytes::open(path, FileBytes::Backing::kBuffer);
  return file ? std::string(file->data(), file->size()) : std::string();
}

/// Writes `records` as one NCD1 file: the bytes a one-member corpus holds.
inline bool write_trace(const std::string& path,
                        const std::vector<TraceRecord>& records) {
  TraceImage image(CorpusFormat::kNcd1);
  for (const TraceRecord& rec : records) image.add(rec);
  return write_file(path, image.bytes());
}

/// Materializes every record a `TraceView::Cursor` walk yields. Returns
/// false, `out` empty, when the file cannot be opened or its magic/count
/// header is invalid. Past a structural error before the declared end, a
/// `strict` read returns false with `out` empty; a tolerant one keeps the
/// records before it and counts the declared remainder as skipped.
inline bool read_materialized(const std::string& path, bool strict,
                              std::vector<TraceRecord>* out,
                              ReadStats* stats = nullptr) {
  out->clear();
  if (stats) *stats = ReadStats{};
  const auto view = TraceView::open(path, TraceView::Backing::kBuffer);
  if (!view) return false;
  const std::uint64_t count = view->declared_count();
  // The count is corruption-controlled: cap the speculative reservation
  // (the vector still grows past it if the records are real).
  out->reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(count, 1u << 20)));
  TraceView::Cursor cursor = view->cursor();
  TraceRecordRef ref;
  while (cursor.next(&ref)) out->push_back(ref.materialize());
  if (cursor.index() < count) {
    if (strict) {
      out->clear();
      return false;
    }
    if (stats) {
      stats->records_read = out->size();
      stats->records_skipped = count - cursor.index();
      stats->truncated = true;
    }
    return true;
  }
  if (stats) stats->records_read = out->size();
  return true;
}

}  // namespace netclients::roots::trace_testing
