// Regenerates the checked-in fuzz seed corpora under one directory:
//
//  * wire/ (fuzz_wire, test_fuzz_wire): one file per interesting
//    wire-format shape — queries with and without ECS, compressed
//    multi-answer responses, TXT payloads, NXDOMAIN, the myaddr TXT
//    exchange, plus near-valid corpses (truncations, a pointer ladder)
//    that exercise the reject paths;
//  * netsvc/ (fuzz_netsvc, test_netsvc): one file per interesting NCS1
//    shape — valid queries at several batch sizes (including the
//    kMaxQuestionsPerMessage edge), full/truncated/FORMERR responses, plus
//    profile-violating and DNS-invalid corpses that exercise every
//    parse_query reject path.
//
// Deterministic: same binary, same bytes. CI regenerates both into a
// scratch directory and requires `diff -r` against the checked-in seeds to
// be empty.
//
// Run:  build/tools/seed_corpus tests/corpus

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "dns_testing.h"
#include "net/prefix.h"
#include "net/rng.h"
#include "netsvc/protocol.h"

using namespace netclients;

namespace {

bool dump(const std::filesystem::path& dir, const std::string& name,
          std::span<const std::uint8_t> bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", (dir / name).c_str());
    return false;
  }
  return true;
}

bool write_wire_seeds(const std::filesystem::path& dir) {
  const auto www = *dns::DnsName::parse("www.example.com");
  const auto probe = *dns::DnsName::parse("qpwoeiruty");
  const auto ecs = dns::EcsOption::for_query(
      net::Prefix(*net::Ipv4Addr::parse("100.64.5.0"), 24));

  bool ok = true;

  // Plain RD=1 A query.
  ok &= dump(dir, "query_a",
             dns::encode(dns::make_query(1, www, dns::RecordType::kA, true)));
  // RD=0 ECS snoop query — the paper's probe shape.
  ok &= dump(dir, "query_ecs",
             dns::encode(dns::make_query(2, www, dns::RecordType::kA, false,
                                         ecs)));
  // Single-label Chromium-style probe.
  ok &= dump(dir, "query_single_label",
             dns::encode(dns::make_query(3, probe, dns::RecordType::kA,
                                         true)));
  // Compressed response: three answers sharing the question's owner name.
  {
    dns::DnsMessage msg =
        dns::make_query(4, www, dns::RecordType::kA, false, ecs);
    msg.header.qr = true;
    msg.header.aa = true;
    msg.edns->ecs->scope_prefix_length = 20;
    for (std::uint32_t i = 0; i < 3; ++i) {
      dns::ResourceRecord& answer = msg.answers.emplace_back();
      answer.name = www;
      answer.ttl = 300 + i;
      answer.rdata = dns::AData{net::Ipv4Addr(0x0A000001u + i)};
    }
    ok &= dump(dir, "response_compressed", dns::encode(msg));
  }
  // TXT response (myaddr-style PoP report).
  {
    dns::DnsMessage msg = dns::make_query(
        5, *dns::DnsName::parse("o-o.myaddr.l.google.com"),
        dns::RecordType::kTxt, true);
    msg.header.qr = true;
    msg.answers.push_back(dns::ResourceRecord{
        msg.questions[0].name, dns::RecordType::kTxt, dns::kClassIn, 60,
        dns::TxtData{"173.194.98.1"}});
    ok &= dump(dir, "response_txt", dns::encode(msg));
  }
  // NXDOMAIN.
  {
    dns::DnsMessage msg =
        dns::make_query(6, *dns::DnsName::parse("nx.example.org"),
                        dns::RecordType::kA, false);
    msg.header.qr = true;
    msg.header.rcode = dns::RCode::kNxDomain;
    ok &= dump(dir, "response_nxdomain", dns::encode(msg));
  }
  // Reject-path seeds: header-only, mid-name truncation, pointer ladder.
  {
    const auto full =
        dns::encode(dns::make_query(7, www, dns::RecordType::kA, true));
    ok &= dump(dir, "truncated_header", std::span(full).first(11));
    ok &= dump(dir, "truncated_name", std::span(full).first(15));
    std::vector<std::uint8_t> ladder = {0x00, 0x08, 0x00, 0x00, 0x00, 0x01,
                                        0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
    ladder.push_back(0x01);
    ladder.push_back('a');
    ladder.push_back(0x00);
    std::size_t prev = 12;
    for (int i = 0; i < 70; ++i) {
      const std::size_t here = ladder.size();
      ladder.push_back(static_cast<std::uint8_t>(0xC0 | (prev >> 8)));
      ladder.push_back(static_cast<std::uint8_t>(prev & 0xFF));
      prev = here;
    }
    ladder.push_back(static_cast<std::uint8_t>(0xC0 | (prev >> 8)));
    ladder.push_back(static_cast<std::uint8_t>(prev & 0xFF));
    ladder.push_back(0x00);
    ladder.push_back(0x01);
    ladder.push_back(0x00);
    ladder.push_back(0x01);
    ok &= dump(dir, "pointer_ladder", ladder);
  }
  return ok;
}

std::vector<net::Ipv4Addr> addresses(std::size_t count, std::uint64_t seed) {
  net::Rng rng(seed);
  std::vector<net::Ipv4Addr> addrs;
  addrs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    addrs.push_back(net::Ipv4Addr(static_cast<std::uint32_t>(rng())));
  }
  return addrs;
}

core::serve::LookupResult result_for(std::uint64_t seed) {
  net::Rng rng(seed);
  core::serve::LookupResult result;
  result.active = rng.bernoulli(0.5);
  result.prefix =
      net::Prefix(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                  static_cast<std::uint8_t>(rng.below(33)));
  result.volume = static_cast<double>(rng.below(1u << 16)) / 3.0;
  result.asn = static_cast<std::uint32_t>(rng());
  result.country = static_cast<std::uint16_t>(rng.below(300));
  result.domain_mask = static_cast<std::uint32_t>(rng());
  return result;
}

bool write_netsvc_seeds(const std::filesystem::path& dir) {
  dns::WireArena arena;
  bool ok = true;

  // Valid queries across the batch-size range.
  const auto one = addresses(1, 0xA1);
  const auto eight = addresses(8, 0xA8);
  const auto sixteen = addresses(16, 0xA16);
  const auto full = addresses(netsvc::kMaxQuestionsPerMessage, 0xAFF);
  ok &= dump(dir, "query_single", netsvc::encode_query(1, one, arena));
  ok &= dump(dir, "query_batch8", netsvc::encode_query(2, eight, arena));
  ok &= dump(dir, "query_batch16", netsvc::encode_query(3, sixteen, arena));
  ok &= dump(dir, "query_batch_max", netsvc::encode_query(4, full, arena));

  // Responses (parse_query drops them as qr=1; parse_response accepts).
  {
    netsvc::QueryView query;
    const auto wire = netsvc::encode_query(5, eight, arena);
    if (netsvc::parse_query(wire, &query) != netsvc::ParseStatus::kOk) {
      std::fprintf(stderr, "self-parse of query_batch8 failed\n");
      return false;
    }
    std::vector<core::serve::LookupResult> results;
    for (std::size_t i = 0; i < eight.size(); ++i) {
      results.push_back(result_for(0xBE5E + i));
    }
    dns::WireArena response_arena;
    ok &= dump(dir, "response_batch8",
               netsvc::encode_response(query, results, response_arena));
    ok &= dump(dir, "response_truncated",
               netsvc::encode_truncated(query, response_arena));
    ok &= dump(dir, "response_formerr",
               netsvc::encode_formerr(5, response_arena));
  }

  // Profile violations: valid DNS, invalid NCS1 (the FORMERR paths).
  ok &= dump(dir, "formerr_bad_hex",
             dns::encode(dns::make_query(6, *dns::DnsName::parse(
                                                "deadbeeg.ncs1"),
                                         dns::RecordType::kTxt, false)));
  ok &= dump(dir, "formerr_wrong_suffix",
             dns::encode(dns::make_query(7, *dns::DnsName::parse(
                                                "deadbeef.wrong"),
                                         dns::RecordType::kTxt, false)));
  ok &= dump(dir, "formerr_wrong_type",
             dns::encode(dns::make_query(8, *dns::DnsName::parse(
                                                "deadbeef.ncs1"),
                                         dns::RecordType::kA, false)));
  ok &= dump(dir, "formerr_edns",
             dns::encode(dns::make_query(
                 9, *dns::DnsName::parse("deadbeef.ncs1"),
                 dns::RecordType::kTxt, false,
                 dns::EcsOption::for_query(
                     net::Prefix(*net::Ipv4Addr::parse("100.64.5.0"), 24)))));
  {
    // Zero questions: a bare query header.
    dns::DnsMessage empty;
    empty.header.id = 10;
    ok &= dump(dir, "formerr_no_questions", dns::encode(empty));
  }

  // DNS-invalid corpses (the silent-drop paths).
  {
    const auto wire = netsvc::encode_query(11, one, arena);
    ok &= dump(dir, "drop_truncated_header", wire.first(11));
    ok &= dump(dir, "drop_truncated_name", wire.first(17));
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path root = argc > 1 ? argv[1] : "tests/corpus";
  bool ok = true;
  for (const auto& [name, write] :
       {std::pair{"wire", &write_wire_seeds},
        std::pair{"netsvc", &write_netsvc_seeds}}) {
    const std::filesystem::path dir = root / name;
    std::filesystem::create_directories(dir);
    if (write(dir)) {
      std::printf("%s seeds written to %s\n", name, dir.c_str());
    } else {
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
