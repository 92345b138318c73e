#include "dns_testing.h"

namespace netclients::dns {

DnsMessage make_query(std::uint16_t id, const DnsName& name, RecordType type,
                      bool recursion_desired, std::optional<EcsOption> ecs) {
  DnsMessage msg;
  msg.header.id = id;
  msg.header.rd = recursion_desired;
  msg.questions.push_back(Question{name, type, kClassIn});
  if (ecs) {
    msg.edns = EdnsInfo{};
    msg.edns->ecs = *ecs;
  }
  return msg;
}

DnsMessage make_response(const DnsMessage& query, RCode rcode) {
  DnsMessage msg;
  msg.header = query.header;
  msg.header.qr = true;
  msg.header.rcode = rcode;
  msg.questions = query.questions;
  if (query.edns) {
    msg.edns = EdnsInfo{};
    msg.edns->ecs = query.edns->ecs;
  }
  return msg;
}

namespace {

void encode_rdata(BufWriter& writer, const ResourceRecord& rr) {
  const std::size_t len_at = writer.size();
  writer.u16(0);  // placeholder
  const std::size_t start = writer.size();
  if (const auto* a = std::get_if<AData>(&rr.rdata)) {
    writer.u32(a->address.value());
  } else if (const auto* txt = std::get_if<TxtData>(&rr.rdata)) {
    // Split into 255-byte character-strings.
    std::string_view rest = txt->text;
    do {
      std::string_view chunk = rest.substr(0, 255);
      rest.remove_prefix(chunk.size());
      writer.u8(static_cast<std::uint8_t>(chunk.size()));
      writer.bytes({reinterpret_cast<const std::uint8_t*>(chunk.data()),
                    chunk.size()});
    } while (!rest.empty());
  } else {
    const auto& raw = std::get<RawData>(rr.rdata);
    writer.bytes(raw.bytes);
  }
  writer.patch_u16(len_at, static_cast<std::uint16_t>(writer.size() - start));
}

void encode_record(BufWriter& writer, const ResourceRecord& rr) {
  writer.name(rr.name);
  writer.u16(static_cast<std::uint16_t>(rr.type));
  writer.u16(rr.rclass);
  writer.u32(rr.ttl);
  encode_rdata(writer, rr);
}

}  // namespace

std::span<const std::uint8_t> encode_into(const DnsMessage& message,
                                          WireArena& arena) {
  BufWriter writer(arena);
  const Header& h = message.header;
  writer.u16(h.id);
  std::uint16_t flags = 0;
  flags |= static_cast<std::uint16_t>(h.qr) << 15;
  flags |= static_cast<std::uint16_t>(h.opcode & 0xF) << 11;
  flags |= static_cast<std::uint16_t>(h.aa) << 10;
  flags |= static_cast<std::uint16_t>(h.tc) << 9;
  flags |= static_cast<std::uint16_t>(h.rd) << 8;
  flags |= static_cast<std::uint16_t>(h.ra) << 7;
  flags |= static_cast<std::uint16_t>(h.rcode) & 0xF;
  writer.u16(flags);
  writer.u16(static_cast<std::uint16_t>(message.questions.size()));
  writer.u16(static_cast<std::uint16_t>(message.answers.size()));
  writer.u16(static_cast<std::uint16_t>(message.authorities.size()));
  writer.u16(static_cast<std::uint16_t>(message.additionals.size() +
                                        (message.edns ? 1 : 0)));
  for (const auto& q : message.questions) {
    writer.name(q.name);
    writer.u16(static_cast<std::uint16_t>(q.type));
    writer.u16(q.qclass);
  }
  for (const auto& rr : message.answers) encode_record(writer, rr);
  for (const auto& rr : message.authorities) encode_record(writer, rr);
  for (const auto& rr : message.additionals) encode_record(writer, rr);
  if (message.edns) encode_opt(writer, *message.edns);
  return writer.finish();
}

std::vector<std::uint8_t> encode(const DnsMessage& message) {
  thread_local WireArena arena;
  const std::span<const std::uint8_t> wire = encode_into(message, arena);
  return {wire.begin(), wire.end()};
}

DnsMessage materialize(const MessageView& view) {
  DnsMessage msg;
  msg.header = view.header();
  view.for_each_question([&msg](const MessageView::QuestionView& q) {
    msg.questions.push_back(Question{q.name.materialize(), q.type, q.qclass});
  });
  using Section = MessageView::Section;
  const std::pair<Section, std::vector<ResourceRecord>*> sections[] = {
      {Section::kAnswer, &msg.answers},
      {Section::kAuthority, &msg.authorities},
      {Section::kAdditional, &msg.additionals}};
  for (const auto& [section, records] : sections) {
    view.for_each_record(section, [records](
                                      const MessageView::RecordView& record) {
      ResourceRecord rr;
      rr.name = record.name.materialize();
      rr.type = record.type;
      rr.rclass = record.rclass;
      rr.ttl = record.ttl;
      if (auto a = record.a_address()) {
        rr.rdata = AData{*a};
      } else if (record.type == RecordType::kTxt &&
                 record.rclass == kClassIn) {
        TxtData txt;
        record.txt_text(&txt.text);  // validated at parse; cannot fail
        rr.rdata = std::move(txt);
      } else {
        rr.rdata = RawData{{record.rdata.begin(), record.rdata.end()}};
      }
      records->push_back(std::move(rr));
    });
  }
  msg.edns = view.edns();
  return msg;
}

DecodeResult decode(std::span<const std::uint8_t> wire) {
  std::string error;
  auto view = MessageView::parse(wire, &error);
  if (!view) return DecodeResult::failure(std::move(error));
  return DecodeResult::success(materialize(*view));
}

}  // namespace netclients::dns

namespace netclients::dns_testing {

using dns::DnsMessage;

namespace {

net::Prefix ecs_source(const DnsMessage& query) {
  if (query.edns && query.edns->ecs) return query.edns->ecs->source_prefix();
  return net::Prefix();  // 0.0.0.0/0 when no ECS attached
}

/// A NOERROR reply answering the first question with an A record.
DnsMessage a_reply(const DnsMessage& query, std::uint32_t ttl,
                   net::Ipv4Addr address, std::uint8_t scope) {
  DnsMessage response = dns::make_response(query, dns::RCode::kNoError);
  dns::ResourceRecord& answer = response.answers.emplace_back();
  answer.name = query.questions.front().name;
  answer.ttl = ttl;
  answer.rdata = dns::AData{address};
  if (response.edns && response.edns->ecs) {
    response.edns->ecs->scope_prefix_length = scope;
  }
  return response;
}

}  // namespace

DnsMessage reference_reply(const dnssrv::AuthoritativeServer& server,
                           const DnsMessage& query, std::uint32_t epoch) {
  if (query.questions.empty()) {
    return dns::make_response(query, dns::RCode::kFormErr);
  }
  const dns::Question& q = query.questions.front();
  const auto answer = server.resolve(q.name, ecs_source(query), epoch);
  if (!answer) return dns::make_response(query, dns::RCode::kNxDomain);
  DnsMessage response =
      a_reply(query, answer->ttl, answer->address, answer->scope_length);
  if (q.type != dns::RecordType::kA) response.answers.clear();
  response.header.aa = true;
  return response;
}

DnsMessage reference_reply(googledns::GooglePublicDns& google,
                           const dnssrv::AuthoritativeServer& upstream,
                           const DnsMessage& query, net::LatLon source,
                           std::uint64_t route_key, net::SimTime now,
                           googledns::Transport transport, int vp_id,
                           const anycast::RouteBias& bias) {
  if (query.questions.empty()) {
    return dns::make_response(query, dns::RCode::kFormErr);
  }
  const dns::Question& q = query.questions.front();
  const anycast::PopId pop = google.pop_for(source, route_key, bias);
  const std::uint32_t epoch = google.config().epoch;

  if (q.name == googledns::GooglePublicDns::myaddr_name() &&
      q.type == dns::RecordType::kTxt) {
    DnsMessage response = dns::make_response(query, dns::RCode::kNoError);
    response.header.ra = true;
    response.answers.push_back(dns::ResourceRecord{
        q.name, dns::RecordType::kTxt, dns::kClassIn, 60,
        dns::TxtData{google.pops().site(pop).city}});
    return response;
  }

  if (query.header.rd) {
    (void)google.pops().site(pop);  // an unknown PoP throws
    net::Ipv4Addr client(static_cast<std::uint32_t>(route_key));
    if (query.edns && query.edns->ecs) client = query.edns->ecs->address;
    const auto answer =
        upstream.resolve(q.name, net::Prefix::slash24_of(client), epoch);
    if (!answer) return dns::make_response(query, dns::RCode::kNxDomain);
    DnsMessage response =
        a_reply(query, answer->ttl, answer->address, answer->scope_length);
    response.header.ra = true;
    return response;
  }

  const net::Prefix query_scope = ecs_source(query);
  const googledns::ProbeResult pr = google.probe(
      pop, q.name, query_scope, now, transport, vp_id, query.header.id);
  if (pr.status == googledns::ProbeStatus::kRateLimited) {
    return dns::make_response(query, dns::RCode::kRefused);
  }
  if (pr.failed()) return dns::make_response(query, dns::RCode::kServFail);
  if (!pr.cache_hit) {
    DnsMessage response = dns::make_response(query, dns::RCode::kNoError);
    response.header.ra = true;
    return response;
  }
  const auto answer = upstream.resolve(q.name, query_scope, epoch);
  DnsMessage response =
      a_reply(query, pr.remaining_ttl,
              answer ? answer->address : net::Ipv4Addr(0), pr.return_scope);
  response.header.ra = true;
  return response;
}

std::vector<std::vector<std::uint8_t>> corner_case_queries(
    const dns::DnsName& name, bool recursion_desired) {
  std::uint16_t id = 0;
  // An A query for `name`, with ECS for `prefix` (none when null) whose
  // scope byte is `scope`.
  const auto query = [&](const char* prefix, std::uint8_t scope = 0) {
    std::optional<dns::EcsOption> ecs;
    if (prefix != nullptr) {
      ecs = dns::EcsOption::for_query(*net::Prefix::parse(prefix));
      ecs->scope_prefix_length = scope;
    }
    return dns::make_query(++id, name, dns::RecordType::kA,
                           recursion_desired, ecs);
  };
  // The first question's letters upper-cased in place: it starts right
  // after the 12-byte header, uncompressed.
  const auto upper_first_question = [](std::vector<std::uint8_t> wire) {
    for (std::size_t at = 12; at < wire.size() && wire[at] != 0;
         at += 1 + wire[at]) {
      for (std::size_t i = at + 1; i <= at + wire[at]; ++i) {
        if (wire[i] >= 'a' && wire[i] <= 'z') wire[i] -= 'a' - 'A';
      }
    }
    return wire;
  };

  // The encoder compresses the repeated name to a pointer at offset 12.
  DnsMessage two = query("100.64.5.0/24");
  two.questions.push_back({name, dns::RecordType::kTxt});
  DnsMessage no_ecs = query(nullptr);
  no_ecs.edns = dns::EdnsInfo{1232, std::nullopt};
  DnsMessage records = query("100.64.6.0/24");
  records.answers.push_back({name, dns::RecordType::kA, dns::kClassIn, 60,
                             dns::AData{net::Ipv4Addr(0xC0000201u)}});
  records.authorities.push_back({*dns::DnsName::parse("com"),
                                 dns::RecordType::kNs, dns::kClassIn, 172800,
                                 dns::RawData{{2, 'n', 's', 0}}});
  DnsMessage flags = query("100.64.7.0/24");
  flags.header.tc = flags.header.aa = flags.header.ra = true;
  flags.header.opcode = 2;
  DnsMessage txt = query("100.64.8.0/24");
  txt.questions.front().type = dns::RecordType::kTxt;
  DnsMessage aaaa = query("100.64.8.0/24");
  aaaa.questions.front().type = dns::RecordType::kAaaa;
  DnsMessage root = query("100.64.9.0/24");
  root.questions.front().name = dns::DnsName{};
  DnsMessage empty = query("100.64.10.0/24");
  empty.questions.clear();

  std::vector<std::vector<std::uint8_t>> out = {{}};  // unparseable
  for (const DnsMessage& message : {query("100.64.5.0/24"), two}) {
    out.push_back(upper_first_question(dns::encode(message)));
  }
  for (const DnsMessage& message :
       {no_ecs, query("0.0.0.0/0"), query("100.64.5.77/32"),
        query("100.64.5.0/24", 13), records, flags, txt, aaaa, root,
        empty}) {
    out.push_back(dns::encode(message));
  }
  return out;
}

}  // namespace netclients::dns_testing
