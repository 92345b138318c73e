// Tests for the DNS substrate: names, ECS, and the RFC 1035 wire plane
// (MessageView, the in-place query writer, name compression, malformed
// input rejection), checked against the structured codec in
// dns_testing.h, whose round trips are tested here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/packet.h"
#include "dns_testing.h"
#include "net/rng.h"

namespace netclients::dns {
namespace {

// ----------------------------------------------------------------- DnsName

TEST(DnsName, ParsesAndCanonicalizesCase) {
  auto name = DnsName::parse("WWW.Google.COM");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(name->to_string(), "www.google.com");
  EXPECT_EQ(name->label_count(), 3u);
}

TEST(DnsName, TrailingDotOptional) {
  EXPECT_EQ(*DnsName::parse("example.com."), *DnsName::parse("example.com"));
}

TEST(DnsName, RootName) {
  auto root = DnsName::parse(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_TRUE(root->is_root());
  EXPECT_EQ(root->to_string(), ".");
  EXPECT_EQ(root->wire_length(), 1u);
}

TEST(DnsName, SingleLabelDetection) {
  EXPECT_TRUE(DnsName::parse("sdhfjssf")->is_single_label());
  EXPECT_FALSE(DnsName::parse("a.b")->is_single_label());
}

TEST(DnsName, WireLength) {
  // 3www6google3com0 = 1+3 + 1+6 + 1+3 + 1 = 16
  EXPECT_EQ(DnsName::parse("www.google.com")->wire_length(), 16u);
}

TEST(DnsName, EqualNamesHashEqual) {
  const auto a = *DnsName::parse("Example.COM");
  const auto b = *DnsName::parse("example.com");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

class DnsNameRejects : public ::testing::TestWithParam<const char*> {};

TEST_P(DnsNameRejects, Rejects) {
  EXPECT_FALSE(DnsName::parse(GetParam()).has_value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, DnsNameRejects,
    ::testing::Values("a..b", ".leading", "bad label",
                      "<script>", "a!b.com",
                      // 64-char label (limit is 63)
                      "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
                      "aaaaaaaaaaaa.com"));

TEST(DnsName, RejectsNamesOver255Octets) {
  // 5 labels of 63 'a' = 5*64+1 = 321 > 255.
  std::string big;
  for (int i = 0; i < 5; ++i) {
    if (i) big.push_back('.');
    big.append(63, 'a');
  }
  EXPECT_FALSE(DnsName::parse(big).has_value());
}

bool is_label_byte(unsigned char b) {
  return (b >= 'A' && b <= 'Z') || (b >= 'a' && b <= 'z') ||
         (b >= '0' && b <= '9') || b == '-' || b == '_';
}

/// `parse` result checks shared by the byte sweep: the labels are the
/// lowercased input and the hash is the one from_labels computes.
void expect_parsed_as(const std::optional<DnsName>& name,
                      const std::vector<std::string>& labels) {
  ASSERT_TRUE(name.has_value());
  std::vector<std::string> lowered = labels;
  for (auto& label : lowered) {
    for (auto& c : label) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
  }
  EXPECT_EQ(name->labels(), lowered);
  const auto rebuilt = DnsName::from_labels(labels);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(name->hash(), rebuilt->hash());
  EXPECT_EQ(*name, *rebuilt);
}

TEST(DnsName, AcceptsExactlyTheLabelBytes) {
  for (int value = 0; value < 256; ++value) {
    if (value == '.') continue;
    const char c = static_cast<char>(value);
    const bool valid = is_label_byte(static_cast<unsigned char>(value));
    const std::string alone(1, c);
    const std::string inside = std::string("a") + c + "b";
    const std::string dotted = std::string("x.a") + c + "b.com";
    EXPECT_EQ(DnsName::parse(alone).has_value(), valid) << "byte " << value;
    EXPECT_EQ(DnsName::parse(inside).has_value(), valid) << "byte " << value;
    EXPECT_EQ(DnsName::parse(dotted).has_value(), valid) << "byte " << value;
    if (valid) {
      expect_parsed_as(DnsName::parse(alone), {alone});
      expect_parsed_as(DnsName::parse(inside), {inside});
      expect_parsed_as(DnsName::parse(dotted), {"x", inside, "com"});
    }
  }
}

TEST(DnsName, LabelAndNameLengthLimits) {
  const std::string label63(63, 'a');
  expect_parsed_as(DnsName::parse(label63), {label63});
  EXPECT_FALSE(DnsName::parse(std::string(64, 'a')).has_value());
  EXPECT_FALSE(DnsName::parse("x." + std::string(64, 'a')).has_value());
  // Three 63-byte labels plus one of 61 (or 62) bytes: 4 length octets +
  // 250 (or 251) label bytes + the root terminator = 255 (or 256).
  const std::string three = label63 + "." + label63 + "." + label63 + ".";
  const std::string last61(61, 'B');
  const auto at_limit = DnsName::parse(three + last61);
  expect_parsed_as(at_limit, {label63, label63, label63, last61});
  EXPECT_EQ(at_limit->wire_length(), 255u);
  EXPECT_TRUE(DnsName::parse(three + last61 + ".").has_value());
  EXPECT_FALSE(DnsName::parse(three + std::string(62, 'b')).has_value());
  EXPECT_FALSE(DnsName::from_labels({label63, label63, label63,
                                     std::string(62, 'b')})
                   .has_value());
}

// --------------------------------------------------------------------- ECS

TEST(Ecs, ForQuerySetsScopeZero) {
  const auto ecs = EcsOption::for_query(*net::Prefix::parse("1.2.3.0/24"));
  EXPECT_EQ(ecs.source_prefix_length, 24);
  EXPECT_EQ(ecs.scope_prefix_length, 0);
  EXPECT_EQ(ecs.source_prefix().to_string(), "1.2.3.0/24");
}

// --------------------------------------------------------------- wire codec

DnsMessage sample_query() {
  return make_query(0x1234, *DnsName::parse("www.google.com"),
                    RecordType::kA, false,
                    EcsOption::for_query(*net::Prefix::parse(
                        "203.0.113.0/24")));
}

TEST(Wire, QueryRoundTrip) {
  const DnsMessage query = sample_query();
  const auto wire = encode(query);
  const DecodeResult decoded = decode(wire);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.message, query);
}

TEST(Wire, HeaderFlagsRoundTrip) {
  DnsMessage msg = sample_query();
  msg.header.qr = true;
  msg.header.aa = true;
  msg.header.ra = true;
  msg.header.rd = true;
  msg.header.rcode = RCode::kNxDomain;
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.message.header, msg.header);
}

TEST(Wire, ResponseWithAnswersRoundTrip) {
  DnsMessage response = make_response(sample_query(), RCode::kNoError);
  response.answers.push_back(ResourceRecord{
      *DnsName::parse("www.google.com"), RecordType::kA, kClassIn, 300,
      AData{*net::Ipv4Addr::parse("142.250.1.1")}});
  response.edns->ecs->scope_prefix_length = 20;
  const auto decoded = decode(encode(response));
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.message, response);
  EXPECT_EQ(decoded.message.edns->ecs->scope_prefix_length, 20);
}

TEST(Wire, TxtRecordRoundTrip) {
  DnsMessage msg = make_response(sample_query(), RCode::kNoError);
  msg.answers.push_back(ResourceRecord{*DnsName::parse("o-o.myaddr"),
                                       RecordType::kTxt, kClassIn, 60,
                                       TxtData{"Groningen"}});
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.message, msg);
}

TEST(Wire, LongTxtSplitsIntoCharacterStrings) {
  DnsMessage msg = make_response(sample_query(), RCode::kNoError);
  std::string long_text(700, 'x');
  msg.answers.push_back(ResourceRecord{*DnsName::parse("t.example"),
                                       RecordType::kTxt, kClassIn, 60,
                                       TxtData{long_text}});
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(std::get<TxtData>(decoded.message.answers[0].rdata).text,
            long_text);
}

TEST(Wire, CompressionShrinksRepeatedNames) {
  DnsMessage msg = make_response(sample_query(), RCode::kNoError);
  for (int i = 0; i < 4; ++i) {
    ResourceRecord& answer = msg.answers.emplace_back();
    answer.name = *DnsName::parse("www.google.com");
    answer.ttl = 300;
    answer.rdata =
        AData{net::Ipv4Addr(0x01020304u + static_cast<std::uint32_t>(i))};
  }
  const auto wire = encode(msg);
  // Without compression each answer owner name costs 16 bytes; compressed
  // repeats cost 2. Verify the aggregate is clearly compressed.
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok);
  EXPECT_EQ(decoded.message, msg);
  const std::size_t uncompressed_estimate =
      12 + (16 + 4) + 4 * (16 + 10 + 4) + 23;
  EXPECT_LT(wire.size(), uncompressed_estimate - 3 * 10);
}

TEST(Wire, CompressionKeysOnWholeLabels) {
  // A label may hold a '.' byte: "a.b" + "c" and "a" + "b" + "c" share a
  // dotted spelling but are different names, so the second must not be
  // compressed to a pointer at the first.
  DnsMessage msg;
  msg.questions.push_back(
      Question{*DnsName::from_labels({"a.b", "c"}), RecordType::kA});
  msg.questions.push_back(
      Question{*DnsName::from_labels({"a", "b", "c"}), RecordType::kA});
  const auto wire = encode(msg);
  const DecodeResult decoded = decode(wire);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.message, msg);
  ASSERT_EQ(decoded.message.questions.size(), 2u);
  EXPECT_EQ(decoded.message.questions[1].name.label_count(), 3u);
  // The shared suffix "c" is still compressed: a, b, then a pointer at
  // the first question's "c" (offset 12 + 4).
  const std::vector<std::uint8_t> second = {1, 'a', 1, 'b', 0xC0, 16};
  EXPECT_TRUE(std::search(wire.begin(), wire.end(), second.begin(),
                          second.end()) != wire.end());
}

TEST(Wire, EcsScopeLongerSourceRoundTrip) {
  // A /12 source needs only 2 address bytes on the wire.
  auto query = make_query(7, *DnsName::parse("a.example"), RecordType::kA,
                          true,
                          EcsOption::for_query(*net::Prefix::parse(
                              "10.16.0.0/12")));
  const auto decoded = decode(encode(query));
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.message.edns->ecs->source_prefix().to_string(),
            "10.16.0.0/12");
}

TEST(Wire, DecodeRejectsTruncationAtEveryLength) {
  const auto wire = encode(sample_query());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const DecodeResult decoded =
        decode(std::span<const std::uint8_t>(wire.data(), len));
    EXPECT_FALSE(decoded.ok) << "accepted truncation at " << len;
  }
}

TEST(Wire, DecodeRejectsTrailingGarbage) {
  auto wire = encode(sample_query());
  wire.push_back(0xAB);
  EXPECT_FALSE(decode(wire).ok);
}

TEST(Wire, DecodeRejectsCompressionLoop) {
  // Header with one question whose name is a pointer to itself.
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00,
      0xC0, 0x0C,  // pointer to offset 12 (itself)
      0x00, 0x01, 0x00, 0x01};
  EXPECT_FALSE(decode(wire).ok);
}

TEST(Wire, DecodeRejectsForwardPointer) {
  std::vector<std::uint8_t> wire = {
      0x00, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00,
      0xC0, 0x20,  // pointer beyond current position
      0x00, 0x01, 0x00, 0x01};
  EXPECT_FALSE(decode(wire).ok);
}

TEST(Wire, DecodeRejectsBadEcs) {
  auto query = sample_query();
  auto wire = encode(query);
  // Corrupt the ECS family (last option bytes): find option code 8 and
  // set family to 2 (IPv6) which we reject.
  for (std::size_t i = 0; i + 8 < wire.size(); ++i) {
    if (wire[i] == 0 && wire[i + 1] == 8 && wire[i + 4] == 0 &&
        wire[i + 5] == 1) {
      wire[i + 5] = 2;
      break;
    }
  }
  EXPECT_FALSE(decode(wire).ok);
}

TEST(Wire, UnknownRecordTypePreservedAsRaw) {
  DnsMessage msg = make_response(sample_query(), RCode::kNoError);
  msg.answers.push_back(ResourceRecord{*DnsName::parse("x.example"),
                                       static_cast<RecordType>(99), kClassIn,
                                       5, RawData{{1, 2, 3, 4, 5}}});
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.message, msg);
}

// Property: arbitrary generated messages round-trip bit-exactly.
class WireRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTrip, GeneratedMessagesRoundTrip) {
  net::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    DnsMessage msg;
    msg.header.id = static_cast<std::uint16_t>(rng());
    msg.header.qr = rng.bernoulli(0.5);
    msg.header.rd = rng.bernoulli(0.5);
    msg.header.rcode = static_cast<RCode>(rng.below(6));
    const char* names[] = {"www.google.com", "a.b.c.d.example",
                           "singlelabel", "x.y"};
    msg.questions.push_back(Question{
        *DnsName::parse(names[rng.below(4)]),
        rng.bernoulli(0.5) ? RecordType::kA : RecordType::kTxt, kClassIn});
    const auto answers = rng.below(4);
    for (std::uint64_t i = 0; i < answers; ++i) {
      ResourceRecord rr;
      rr.name = *DnsName::parse(names[rng.below(4)]);
      rr.ttl = static_cast<std::uint32_t>(rng.below(86400));
      if (rng.bernoulli(0.5)) {
        rr.type = RecordType::kA;
        rr.rdata = AData{net::Ipv4Addr(static_cast<std::uint32_t>(rng()))};
      } else {
        rr.type = RecordType::kTxt;
        rr.rdata = TxtData{std::string(rng.below(80), 't')};
      }
      msg.answers.push_back(std::move(rr));
    }
    if (rng.bernoulli(0.7)) {
      msg.edns = EdnsInfo{};
      if (rng.bernoulli(0.8)) {
        msg.edns->ecs = EcsOption::for_query(
            net::Prefix(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                        static_cast<std::uint8_t>(rng.below(25))));
        msg.edns->ecs->scope_prefix_length =
            static_cast<std::uint8_t>(rng.below(25));
      }
    }
    const auto decoded = decode(encode(msg));
    ASSERT_TRUE(decoded.ok) << decoded.error;
    EXPECT_EQ(decoded.message, msg);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip,
                         ::testing::Values(101, 102, 103, 104, 105, 106));

// ------------------------------------------------------------ packet plane

/// A response exercising every encoder feature at once: compression
/// (shared owner names), A + TXT + raw RDATA, authority/additional
/// sections, and an ECS-carrying OPT.
DnsMessage busy_response() {
  DnsMessage msg = make_response(sample_query(), RCode::kNoError);
  msg.header.aa = true;
  msg.edns->ecs->scope_prefix_length = 20;
  const auto owner = *DnsName::parse("www.google.com");
  msg.answers.push_back(ResourceRecord{
      owner, RecordType::kA, kClassIn, 300, AData{net::Ipv4Addr(0x08080808)}});
  msg.answers.push_back(ResourceRecord{
      owner, RecordType::kA, kClassIn, 300, AData{net::Ipv4Addr(0x08080404)}});
  msg.answers.push_back(ResourceRecord{
      *DnsName::parse("alias.google.com"), RecordType::kTxt, kClassIn, 60,
      TxtData{"pop=grq"}});
  msg.authorities.push_back(ResourceRecord{
      *DnsName::parse("google.com"), static_cast<RecordType>(2), kClassIn,
      86400, RawData{{3, 'n', 's', '1', 0xC0, 0x11}}});
  msg.additionals.push_back(ResourceRecord{
      *DnsName::parse("ns1.google.com"), RecordType::kA, kClassIn, 86400,
      AData{net::Ipv4Addr(0x01020304)}});
  return msg;
}

DnsName probe_name(net::Rng& rng, const char* apex) {
  static const char* kHosts[] = {"www", "mail", "cdn", "api", "static"};
  std::string host = kHosts[rng.below(5)];
  if (rng.below(2) == 0) host += std::to_string(rng.below(100));
  return *DnsName::parse(host + "." + apex);
}

/// The probe engine's message shapes, deterministically varied: RD=0/1
/// ECS queries, NOERROR responses with 1-3 A answers plus the odd TXT,
/// NXDOMAINs, and ECS return scopes. Shared apexes make compression fire.
std::vector<DnsMessage> probe_corpus() {
  static const char* kApexes[] = {"example.com", "probes.example.net",
                                  "cache.test"};
  std::vector<DnsMessage> corpus;
  net::Rng rng(0x1035);
  for (int i = 0; i < 256; ++i) {
    const char* apex = kApexes[rng.below(3)];
    const auto id = static_cast<std::uint16_t>(rng.below(65536));
    const DnsName qname = probe_name(rng, apex);
    std::optional<EcsOption> ecs;
    if (rng.below(4) != 0) {
      ecs = EcsOption::for_query(net::Prefix(
          net::Ipv4Addr(static_cast<std::uint32_t>(rng.below(1u << 24) << 8)),
          static_cast<std::uint8_t>(16 + rng.below(9))));
    }
    DnsMessage msg = make_query(id, qname, RecordType::kA,
                                /*recursion_desired=*/rng.below(2) == 0, ecs);
    if (rng.below(3) != 0) {  // two thirds of the corpus are responses
      msg.header.qr = true;
      msg.header.aa = true;
      if (rng.below(8) == 0) {
        msg.header.rcode = RCode::kNxDomain;
      } else {
        const std::size_t answers = 1 + rng.below(3);
        for (std::size_t a = 0; a < answers; ++a) {
          ResourceRecord& answer = msg.answers.emplace_back();
          answer.name = qname;
          answer.ttl = static_cast<std::uint32_t>(30 + rng.below(300));
          answer.rdata = AData{
              net::Ipv4Addr(static_cast<std::uint32_t>(rng.below(1u << 31)))};
        }
        if (rng.below(4) == 0) {
          const DnsName owner = probe_name(rng, apex);
          msg.answers.push_back(
              ResourceRecord{owner, RecordType::kTxt, kClassIn, 60,
                             TxtData{"pop=" + std::to_string(rng.below(64))}});
        }
        if (msg.edns && msg.edns->ecs) {
          msg.edns->ecs->scope_prefix_length =
              static_cast<std::uint8_t>(16 + rng.below(9));
        }
      }
    }
    corpus.push_back(std::move(msg));
  }
  return corpus;
}

/// `messages` followed by the probe corpus.
std::vector<DnsMessage> with_probe_corpus(std::vector<DnsMessage> messages) {
  for (DnsMessage& msg : probe_corpus()) messages.push_back(std::move(msg));
  return messages;
}

TEST(Packet, ArenaEncodeMatchesAllocEncode) {
  WireArena arena;
  // Sequential encodes into one recycled arena must each match the
  // allocating encoder — recycling cannot leak state across messages.
  for (const DnsMessage& msg : with_probe_corpus(
           {sample_query(), busy_response(),
            make_query(7, *DnsName::parse("."), RecordType::kA, true)})) {
    const auto alloc = encode(msg);
    const auto span = encode_into(msg, arena);
    EXPECT_EQ(alloc, std::vector<std::uint8_t>(span.begin(), span.end()));
  }
}

TEST(Packet, ViewParityWithMaterializingDecode) {
  for (const DnsMessage& msg : with_probe_corpus(
           {sample_query(), busy_response(),
            make_query(1, *DnsName::parse("qpwoeiruty"), RecordType::kA,
                       true)})) {
    const auto wire = encode(msg);
    std::string error;
    const auto view = MessageView::parse(wire, &error);
    ASSERT_TRUE(view.has_value()) << error;
    const DecodeResult decoded = decode(wire);
    ASSERT_TRUE(decoded.ok);
    EXPECT_EQ(materialize(*view), decoded.message);
    EXPECT_EQ(view->header(), msg.header);
  }
}

TEST(Packet, ViewAccessorsExposeSectionsWithoutMaterializing) {
  const DnsMessage msg = busy_response();
  const auto wire = encode(msg);
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->question_count(), 1u);
  EXPECT_TRUE(view->first_question().name.equals(msg.questions[0].name));
  EXPECT_EQ(view->record_count(MessageView::Section::kAnswer), 3u);
  EXPECT_EQ(view->record_count(MessageView::Section::kAuthority), 1u);
  // The OPT pseudo-record is lifted into edns(), not listed as a record.
  EXPECT_EQ(view->record_count(MessageView::Section::kAdditional), 1u);
  ASSERT_TRUE(view->edns().has_value());
  EXPECT_EQ(view->edns(), msg.edns);

  std::vector<net::Ipv4Addr> addrs;
  std::string txt;
  view->for_each_record(MessageView::Section::kAnswer,
                        [&](const MessageView::RecordView& rr) {
                          if (const auto a = rr.a_address()) {
                            addrs.push_back(*a);
                          } else if (rr.type == RecordType::kTxt) {
                            ASSERT_TRUE(rr.txt_text(&txt));
                          }
                        });
  ASSERT_EQ(addrs.size(), 2u);
  EXPECT_EQ(addrs[0].value(), 0x08080808u);
  EXPECT_EQ(addrs[1].value(), 0x08080404u);
  EXPECT_EQ(txt, "pop=grq");
}

TEST(Packet, WriteQueryMatchesTheOracle) {
  // The in-place query writer against the structured encoder: with and
  // without ECS (sources /0, /12, /24 and /32), both RD values, the root
  // name and probe-shaped names.
  std::vector<DnsName> names = {*DnsName::parse("www.google.com"),
                                DnsName{}};
  for (const DnsMessage& msg : probe_corpus()) {
    names.push_back(msg.questions.front().name);
  }
  const std::vector<std::optional<EcsOption>> options = {
      std::nullopt,
      EcsOption::for_query(*net::Prefix::parse("0.0.0.0/0")),
      EcsOption::for_query(*net::Prefix::parse("10.16.0.0/12")),
      EcsOption::for_query(*net::Prefix::parse("203.0.113.0/24")),
      EcsOption::for_query(*net::Prefix::parse("203.0.113.7/32"))};
  std::uint16_t id = 0;
  for (const DnsName& name : names) {
    for (const auto& ecs : options) {
      for (const bool rd : {false, true}) {
        const auto type = id / 2 % 2 ? RecordType::kTxt : RecordType::kA;
        std::vector<std::uint8_t> wire(query_length(name, ecs));
        const std::uint8_t* end =
            write_query(wire.data(), id, name, type, rd, ecs);
        EXPECT_EQ(end, wire.data() + wire.size());
        EXPECT_EQ(wire, encode(make_query(id, name, type, rd, ecs)))
            << name.to_string();
        ++id;
      }
    }
  }
}

TEST(Packet, TruncationSweepEveryOffsetAgrees) {
  // Both decoders must agree — accept/reject and diagnostic — on every
  // prefix of a feature-dense packet and of every probe-shaped message,
  // and neither may crash or hang.
  const auto messages = with_probe_corpus({busy_response()});
  for (std::size_t m = 0; m < messages.size(); ++m) {
    const auto wire = encode(messages[m]);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const std::span<const std::uint8_t> prefix(wire.data(), cut);
      std::string view_error;
      const auto view = MessageView::parse(prefix, &view_error);
      const DecodeResult decoded = decode(prefix);
      ASSERT_EQ(decoded.ok, view.has_value())
          << "message " << m << " cut at " << cut;
      if (!decoded.ok) {
        EXPECT_EQ(decoded.error, view_error)
            << "message " << m << " cut at " << cut;
      } else {
        EXPECT_EQ(materialize(*view), decoded.message)
            << "message " << m << " cut at " << cut;
      }
    }
  }
}

TEST(Packet, EncodeDecodeEncodeByteStable) {
  net::Rng rng(0x1035);
  for (int iter = 0; iter < 100; ++iter) {
    DnsMessage msg = rng.bernoulli(0.5) ? busy_response() : sample_query();
    msg.header.id = static_cast<std::uint16_t>(rng());
    const auto first = encode(msg);
    const DecodeResult decoded = decode(first);
    ASSERT_TRUE(decoded.ok) << decoded.error;
    EXPECT_EQ(encode(decoded.message), first);
  }
  for (const DnsMessage& msg : probe_corpus()) {
    const auto first = encode(msg);
    const DecodeResult decoded = decode(first);
    ASSERT_TRUE(decoded.ok) << decoded.error;
    EXPECT_EQ(encode(decoded.message), first);
  }
}

TEST(Packet, NameViewHashEqualsCaseInsensitive) {
  // Hand-built query whose qname bytes are uppercase: the wire form a
  // real client may send, which DnsName canonicalizes on materialize.
  // NameView must hash/compare the canonical form without materializing.
  std::vector<std::uint8_t> wire = {0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  for (const char* label : {"WWW", "Example", "COM"}) {
    wire.push_back(static_cast<std::uint8_t>(std::strlen(label)));
    for (const char* c = label; *c; ++c) {
      wire.push_back(static_cast<std::uint8_t>(*c));
    }
  }
  wire.push_back(0x00);  // root
  wire.push_back(0x00);
  wire.push_back(0x01);  // qtype A
  wire.push_back(0x00);
  wire.push_back(0x01);  // qclass IN
  const auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.has_value());
  const NameView& name = view->first_question().name;
  const DnsName canonical = *DnsName::parse("www.example.com");
  EXPECT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.canonical_hash(), canonical.hash());
  EXPECT_TRUE(name.equals(canonical));
  EXPECT_FALSE(name.equals(*DnsName::parse("www.example.org")));
  EXPECT_EQ(name.materialize(), canonical);
}

TEST(Packet, ForwardPointerAndLoopRejectedByBothDecoders) {
  // Compression pointers must point strictly backward; craft a name whose
  // pointer targets itself (forward/self reference).
  std::vector<std::uint8_t> wire = {0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  wire.push_back(0xC0);
  wire.push_back(12);  // points at its own first byte
  wire.push_back(0x00);
  wire.push_back(0x01);
  wire.push_back(0x00);
  wire.push_back(0x01);
  std::string view_error;
  EXPECT_FALSE(MessageView::parse(wire, &view_error).has_value());
  const DecodeResult decoded = decode(wire);
  EXPECT_FALSE(decoded.ok);
  EXPECT_EQ(decoded.error, view_error);
  EXPECT_NE(view_error.find("pointer"), std::string::npos) << view_error;
}

TEST(Message, MakeResponseEchoesQuestionAndEcs) {
  const auto query = sample_query();
  const auto response = make_response(query, RCode::kNoError);
  EXPECT_TRUE(response.header.qr);
  EXPECT_EQ(response.header.id, query.header.id);
  EXPECT_EQ(response.questions, query.questions);
  ASSERT_TRUE(response.edns.has_value());
  EXPECT_EQ(response.edns->ecs, query.edns->ecs);
}

}  // namespace
}  // namespace netclients::dns
