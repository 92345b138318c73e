#include "roots/trace_view.h"

#include <cstring>
#include <utility>

#include "dns/name.h"

namespace netclients::roots {
namespace {

constexpr char kMagic[4] = {'N', 'C', 'D', '1'};

}  // namespace

TraceRecord TraceRecordRef::materialize() const {
  TraceRecord rec;
  rec.source = source();
  rec.root_letter = root_letter();
  rec.qtype = qtype();
  rec.timestamp = timestamp();
  std::vector<std::string> labels;
  labels.reserve(label_count());
  for_each_label(
      [&](std::string_view label) { labels.emplace_back(label); });
  // Cursor validation enforces exactly from_labels' structural limits
  // (labels of 1-63 bytes, wire length <= 255), so this cannot fail; the
  // canonicalization from_labels applies (lowercasing) is the one
  // transformation the zero-copy refs skip.
  auto name = dns::DnsName::from_labels(std::move(labels));
  rec.qname = std::move(*name);
  return rec;
}

std::optional<TraceView> TraceView::open(const std::string& path,
                                         Backing backing) {
  auto bytes = FileBytes::open(path, backing, kHeaderBytes);
  if (!bytes) return std::nullopt;
  TraceView view;
  view.bytes_ = std::move(*bytes);
  if (view.bytes_.size() < kHeaderBytes ||
      std::memcmp(view.bytes_.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::memcpy(&view.declared_, view.bytes_.data() + sizeof(kMagic),
              sizeof(view.declared_));
  return view;
}

ReadStats TraceView::validate() const {
  ReadStats stats;
  Cursor cur = cursor();
  TraceRecordRef ref;
  while (cur.next(&ref)) {
  }
  stats.records_read = cur.index();
  if (cur.index() < declared_) {
    stats.records_skipped = declared_ - cur.index();
    stats.truncated = true;
  }
  return stats;
}

}  // namespace netclients::roots
