#include "roots/trace.h"

#include <algorithm>

#include "roots/file_bytes.h"
#include "roots/trace_image.h"
#include "roots/trace_view.h"

namespace netclients::roots {

bool TraceFile::write(const std::string& path,
                      const std::vector<TraceRecord>& records) {
  TraceImage image(CorpusFormat::kNcd1);
  for (const auto& rec : records) image.add(rec);
  return write_file(path, image.bytes());
}

namespace {

/// Shared core of the two readers: one slurp into a buffer-backed
/// TraceView (no per-field ifstream reads), then a cursor walk that
/// materializes each validated record. The cursor applies the same
/// framing and structural rules as the old per-field parser — header
/// validation, bounds, label/wire limits — so strict and tolerant reads
/// cannot drift from each other or from the zero-copy scan path.
bool read_materialized(const std::string& path, bool strict,
                       std::vector<TraceRecord>* out_records,
                       TraceFile::ReadStats* stats) {
  out_records->clear();
  if (stats) *stats = TraceFile::ReadStats{};
  const auto view = TraceView::open(path, TraceView::Backing::kBuffer);
  if (!view) return false;  // unopenable file or bad magic/count header
  const std::uint64_t count = view->declared_count();
  // The count is attacker/corruption-controlled: cap the speculative
  // reservation (the vector still grows past it if the records are real).
  out_records->reserve(
      static_cast<std::size_t>(std::min<std::uint64_t>(count, 1u << 20)));
  TraceView::Cursor cursor = view->cursor();
  TraceRecordRef ref;
  while (cursor.next(&ref)) out_records->push_back(ref.materialize());
  if (cursor.index() < count) {  // structural error before the declared end
    if (strict) {
      out_records->clear();
      return false;
    }
    if (stats) {
      stats->records_read = out_records->size();
      stats->records_skipped = count - cursor.index();
      stats->truncated = true;
    }
    return true;  // keep what parsed; the damaged tail is skip-and-count
  }
  if (stats) stats->records_read = out_records->size();
  return true;
}

}  // namespace

bool TraceFile::read(const std::string& path,
                     std::vector<TraceRecord>* out_records) {
  return read_materialized(path, /*strict=*/true, out_records, nullptr);
}

bool TraceFile::read_tolerant(const std::string& path,
                              std::vector<TraceRecord>* out_records,
                              ReadStats* stats) {
  return read_materialized(path, /*strict=*/false, out_records, stats);
}

}  // namespace netclients::roots
