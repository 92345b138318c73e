// libFuzzer harness for the DNS wire path — the first-class version of
// the seeded mutation loops in tests/test_fuzz_wire.cpp. Three properties,
// any violation traps:
//
//   1. Replies: the authoritative's in-place reply (`handle_wire`, written
//      straight from the MessageView) must be, byte for byte, the oracle's
//      encoding of the reference server's reply to the decoded message;
//      a packet MessageView::parse rejects gets no reply.
//   2. Round-trip: an accepted input must re-encode to bytes that decode
//      back to the same message (decode∘encode idempotence).
//   3. Stability: re-encoding that decoded message again must reproduce
//      the same bytes (encode is a function of the message alone).
//
// The structured codec and the reference server come from the tests'
// support library (tests/dns_testing.h). Crashing inputs found in CI get
// uploaded as artifacts and folded back into tests/corpus/wire/ as
// regression seeds.
//
// Build:  cmake -DNETCLIENTS_FUZZERS=ON (clang only)
// Run:    build/fuzz/fuzz_wire tests/corpus/wire/ -max_total_time=60

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "dns/packet.h"
#include "dns_testing.h"
#include "dnssrv/authoritative.h"

using namespace netclients;

namespace {

void require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "[fuzz_wire] property violated: %s\n", what);
    std::abort();
  }
}

const dnssrv::AuthoritativeServer& server() {
  static const dnssrv::AuthoritativeServer instance = [] {
    dnssrv::AuthoritativeServer s;
    dnssrv::ZoneConfig zone;
    zone.name = *dns::DnsName::parse("www.example.com");
    s.add_zone(zone);
    return s;
  }();
  return instance;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> wire(data, size);

  static dns::WireArena arena;
  const auto reply = server().handle_wire(wire, 1, arena);
  const dns::DecodeResult materialized = dns::decode(wire);
  if (!materialized.ok) {
    require(reply.empty(), "a rejected packet got a reply");
    return 0;
  }
  require(std::vector<std::uint8_t>(reply.begin(), reply.end()) ==
              dns::encode(dns_testing::reference_reply(
                  server(), materialized.message, 1)),
          "in-place reply differs from the reference reply");

  const auto rewire = dns::encode(materialized.message);
  const dns::DecodeResult second = dns::decode(rewire);
  require(second.ok, "re-encoded message no longer decodes");
  require(second.message == materialized.message,
          "decode/encode round trip changed the message");
  require(dns::encode(second.message) == rewire, "encode is not stable");
  return 0;
}
