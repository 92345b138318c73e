#include "roots/packet_trace.h"

#include <cstring>

#include "roots/trace_image.h"

namespace netclients::roots {
namespace {

constexpr char kMagic[4] = {'N', 'C', 'P', '1'};

}  // namespace

std::optional<PacketTraceView> PacketTraceView::open(const std::string& path,
                                                     Backing backing) {
  auto bytes = FileBytes::open(path, backing, kHeaderBytes);
  if (!bytes) return std::nullopt;
  PacketTraceView view;
  view.bytes_ = std::move(*bytes);
  if (view.bytes_.size() < kHeaderBytes ||
      std::memcmp(view.bytes_.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::memcpy(&view.declared_, view.bytes_.data() + sizeof(kMagic),
              sizeof(view.declared_));
  return view;
}

ReadStats PacketTraceView::validate() const {
  ReadStats stats;
  Cursor cur = cursor();
  PacketRecordRef ref;
  while (cur.next(&ref)) {
  }
  stats.records_read = cur.index();
  if (cur.index() < declared_) {
    stats.records_skipped = declared_ - cur.index();
    stats.truncated = true;
  }
  return stats;
}

bool write_packet_trace(const std::string& path,
                        const std::vector<TraceRecord>& records) {
  TraceImage image(CorpusFormat::kNcp1);
  for (const auto& rec : records) {
    if (!image.add(rec)) return false;
  }
  return write_file(path, image.bytes());
}

}  // namespace netclients::roots
