#include "roots/trace_image.h"

#include <cstring>
#include <limits>

#include "dns/packet.h"

namespace netclients::roots {
namespace {

constexpr std::size_t kCountOffset = 4;  // the u64 count follows the magic
constexpr std::size_t kHeaderBytes = kCountOffset + sizeof(std::uint64_t);

// Fixed bytes ahead of an NCD1 record's labels: u32 source, u8 letter,
// u16 qtype, f64 timestamp. The labels follow as a u8 count and (u8 len,
// bytes) per label, which is exactly the name's uncompressed wire length.
constexpr std::size_t kNcd1FixedBytes = 15;
// An NCP1 capture header: u32 source, u8 letter, f64 timestamp, u16
// packet length; the packet's wire bytes follow.
constexpr std::size_t kNcp1FixedBytes = 15;

template <typename T>
char* put(char* out, T value) {
  std::memcpy(out, &value, sizeof(value));
  return out + sizeof(value);
}

/// The name's labels as (u8 len, bytes) each: its uncompressed wire form
/// without the root octet.
char* put_labels(char* out, const dns::DnsName& name) {
  for (const auto& label : name.labels()) {
    out = put(out, static_cast<std::uint8_t>(label.size()));
    std::memcpy(out, label.data(), label.size());
    out += label.size();
  }
  return out;
}

/// Grows `bytes` by `size` and returns where the new bytes start.
char* extend(std::string& bytes, std::size_t size) {
  const std::size_t at = bytes.size();
  bytes.resize(at + size);
  return bytes.data() + at;
}

}  // namespace

TraceImage::TraceImage(CorpusFormat format) : format_(format) {
  const char magic[4] = {'N', 'C', format == CorpusFormat::kNcp1 ? 'P' : 'D',
                         '1'};
  bytes_.assign(magic, sizeof(magic));
  bytes_.resize(kHeaderBytes);  // count 0
}

bool TraceImage::add(const TraceRecord& rec) {
  if (format_ == CorpusFormat::kNcp1) {
    const std::size_t packet = dns::query_length(rec.qname);
    if (packet > std::numeric_limits<std::uint16_t>::max()) return false;
    char* p = extend(bytes_, kNcp1FixedBytes + packet);
    p = put(p, rec.source.value());
    p = put(p, static_cast<std::uint8_t>(rec.root_letter));
    p = put(p, rec.timestamp);
    p = put(p, static_cast<std::uint16_t>(packet));
    dns::write_query(reinterpret_cast<std::uint8_t*>(p),
                     static_cast<std::uint16_t>(records_), rec.qname,
                     rec.qtype, /*recursion_desired=*/false);
  } else {
    char* p = extend(bytes_, kNcd1FixedBytes + rec.qname.wire_length());
    p = put(p, rec.source.value());
    p = put(p, rec.root_letter);
    p = put(p, static_cast<std::uint16_t>(rec.qtype));
    p = put(p, rec.timestamp);
    p = put(p, static_cast<std::uint8_t>(rec.qname.labels().size()));
    put_labels(p, rec.qname);
  }
  ++records_;
  put(bytes_.data() + kCountOffset, records_);
  return true;
}

void TraceImage::clear() {
  bytes_.resize(kHeaderBytes);
  records_ = 0;
  put(bytes_.data() + kCountOffset, records_);
}

}  // namespace netclients::roots
