#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "net/ipv4.h"
#include "net/sim_time.h"

namespace netclients::roots {

/// One captured root-server query, the unit of a DITL trace. Source is the
/// address of whoever sent the query to the root — almost always a
/// recursive resolver, which is why the DNS-logs technique attributes
/// activity to resolvers rather than clients (§3.2.2).
struct TraceRecord {
  net::Ipv4Addr source;
  dns::DnsName qname;
  dns::RecordType qtype = dns::RecordType::kA;
  net::SimTime timestamp = 0;
  char root_letter = 'a';

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

// NCD1, the library's compact binary DITL format, is a faithful stand-in
// for DNS-OARC pcap-derived traces: per-record source, qname, qtype,
// timestamp, capturing root. `TraceImage` encodes it and `TraceView`
// reads it.
//
// Layout: magic "NCD1", u64 record count, then per record:
//   u32 source, u8 letter, u16 qtype, f64 timestamp, u8 label count,
//   (u8 len, bytes) per label.

/// What one tolerant walk over a trace file found (`TraceView::validate`,
/// `PacketTraceView::validate`). The walk keeps every record parsed before
/// the first structural error and counts the declared remainder as
/// skipped; NCD1 has no record framing, so it cannot resync past a damaged
/// record.
struct ReadStats {
  std::uint64_t records_read = 0;
  std::uint64_t records_skipped = 0;  // declared but unparseable
  bool truncated = false;             // stream ended mid-record
};

}  // namespace netclients::roots
