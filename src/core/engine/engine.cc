#include "core/engine/engine.h"

#include <algorithm>
#include <numeric>

#include "net/rng.h"

namespace netclients::core::engine {

Prober::Prober(const ProberContext& context)
    : context_(context),
      breaker_(context.breaker),
      transport_(context.transport) {}

std::vector<ProbeOutcome> Prober::run(const ChainPlan& plan,
                                      std::span<const Chain> chains) {
  std::vector<ProbeOutcome> outcomes(chains.size());
  const std::size_t domains = plan.domain_indices.size();
  targets_.assign(chains.size() * domains, googledns::ProbeTarget{});
  // Chains still un-hit after the previous loop, in submission order.
  std::vector<std::size_t> open(chains.size());
  std::iota(open.begin(), open.end(), std::size_t{0});
  for (int loop = 0; !open.empty(); ++loop) {
    const bool last = loop + 1 >= plan.max_loops;
    std::size_t kept = 0;
    for (const std::size_t i : open) {
      const double t =
          chains[i].schedule_time + loop * plan.loop_stride_seconds;
      const Evaluation evaluation =
          evaluate(plan, chains[i], &targets_[i * domains], loop, t);
      ProbeOutcome& outcome = outcomes[i];
      outcome.rate_limited += evaluation.rate_limited;
      if (evaluation.hit || last) {
        outcome.hit = evaluation.hit;
        outcome.return_scope = evaluation.return_scope;
        outcome.loop = loop;
        outcome.when = t;
      } else {
        // A chain whose attempts all failed this loop but which a later
        // loop revisits (skip-and-count bookkeeping).
        if (evaluation.hard_failure) ++stats_.requeued;
        open[kept++] = i;
      }
    }
    open.resize(kept);
  }
  return outcomes;
}

resilience::RetryStats Prober::stats() const {
  resilience::RetryStats out = stats_;
  out.breaker_opened = breaker_.opened();
  out.breaker_skipped = breaker_.skipped();
  return out;
}

Prober::Evaluation Prober::evaluate(const ChainPlan& plan, const Chain& chain,
                                    googledns::ProbeTarget* targets, int loop,
                                    double t) {
  ++evaluations_;
  Evaluation out;
  // Breaker gate, once per (chain, loop). While the PoP's breaker is open
  // the chain is skipped (the breaker counts it); it stays un-hit, so a
  // later loop revisits it within the loop budget.
  if (!breaker_.allow(t)) return out;
  for (std::size_t k = 0; k < plan.domain_indices.size(); ++k) {
    googledns::ProbeTarget& target = targets[k];
    if (target.domain == nullptr) {
      const auto d = static_cast<std::size_t>(plan.domain_indices[k]);
      target = context_.dns->target(context_.pop, (*context_.domains)[d].name,
                                    chain.scope, chain.upstream[k]);
    }
    for (int attempt = 0; attempt < plan.redundancy; ++attempt) {
      const auto probe = probe_with_retries(
          target, t + attempt * plan.attempt_spacing_seconds,
          loop * plan.attempt_loop_stride + attempt);
      if (probe.status == googledns::ProbeStatus::kRateLimited) {
        ++out.rate_limited;
        continue;
      }
      if (probe.failed()) {
        out.hard_failure = true;
        continue;
      }
      if (probe.cache_hit && probe.return_scope > 0) {
        out.hit = true;
        out.return_scope = probe.return_scope;
        return out;
      }
    }
  }
  return out;
}

/// One redundancy attempt (original timing and attempt id); injected
/// timeouts/SERVFAILs are retried with per-transport timeout plus jittered
/// exponential backoff, up to the policy's attempt budget.
googledns::ProbeResult Prober::probe_with_retries(
    const googledns::ProbeTarget& target, double t, int attempt_id) {
  const int max_attempts = std::max(1, context_.retry.max_attempts);
  googledns::ProbeResult result;
  for (int try_index = 0;; ++try_index) {
    ++probes_sent_;
    // Retries keep the attempt id AND the timestamp: the flow hashes to
    // the same cache pool (5-tuple stickiness) and samples the same cache
    // snapshot, so a retry can only recover the answer the fault masked —
    // it never probes extra pools or a newer cache, either of which would
    // let injected loss *increase* recall. The fault oracle re-rolls via
    // `try_index`.
    result = context_.dns->probe(context_.pop, target, t, transport_,
                                 context_.vp_id, attempt_id, try_index);
    if (result.status == googledns::ProbeStatus::kOk) {
      consecutive_soft_failures_ = 0;
      breaker_.record_success();
      return result;
    }
    if (result.status == googledns::ProbeStatus::kRateLimited) {
      // Normal operation (the token buckets), not a fault: no retry — the
      // paper's answer to rate limiting was transport choice, so it only
      // feeds the optional UDP→TCP escalation.
      note_soft_failure();
      return result;
    }
    // Hard failure: timeout or SERVFAIL.
    if (result.status == googledns::ProbeStatus::kTimeout) {
      ++stats_.timeouts;
      note_soft_failure();
    } else {
      ++stats_.servfails;
    }
    if (try_index + 1 >= max_attempts) {
      ++stats_.exhausted;
      // Only an exhausted chain counts against the breaker: a probe that
      // eventually succeeds is healthy, and per-attempt accounting would
      // make a bigger retry budget trip the breaker *more* often under
      // uniform loss.
      breaker_.record_failure(t);
      return result;
    }
    ++stats_.retries;
    const net::Prefix scope = target.query_scope;
    const std::uint64_t key = net::stable_seed(
        target.domain->hash(), std::uint64_t{scope.base().value()},
        std::uint64_t{scope.length()},
        static_cast<std::uint64_t>(context_.pop),
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(attempt_id)));
    const double backoff = context_.retry.backoff_before(try_index + 1, key);
    stats_.waited_ms += static_cast<std::uint64_t>(
        (context_.retry.timeout_for(transport_) + backoff) * 1000.0);
  }
}

/// Escalation is per-prober state: after enough consecutive rate-limited
/// or timed-out UDP answers, every later probe goes over TCP (the paper's
/// forced migration).
void Prober::note_soft_failure() {
  if (transport_ != googledns::Transport::kUdp ||
      !context_.retry.escalate_udp_to_tcp) {
    return;
  }
  if (++consecutive_soft_failures_ >= context_.retry.escalation_threshold) {
    transport_ = googledns::Transport::kTcp;
    ++stats_.escalations;
    consecutive_soft_failures_ = 0;
  }
}

}  // namespace netclients::core::engine
