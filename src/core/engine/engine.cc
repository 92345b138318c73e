#include "core/engine/engine.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/engine/timeline.h"
#include "net/rng.h"

namespace netclients::core::engine {

void EngineStats::merge(const EngineStats& other) {
  virtual_elapsed_seconds =
      std::max(virtual_elapsed_seconds, other.virtual_elapsed_seconds);
  evaluations += other.evaluations;
  window_stalls += other.window_stalls;
  breaker_drained += other.breaker_drained;
  peak_in_flight = std::max(peak_in_flight, other.peak_in_flight);
}

namespace {

/// The decision plane: evaluates one chain's probes in canonical order
/// through the retry/timeout/breaker policy and models the chain's virtual
/// latency on the side. Oracle results are order-sensitive (per-flow token
/// buckets) and the breaker is sequential, which is why decisions cannot
/// ride the event clock: only timing may.
class ChainEvaluator {
 public:
  explicit ChainEvaluator(const ProberContext& context)
      : context_(context),
        breaker_(context.breaker),
        transport_(context.transport) {}

  struct Evaluation {
    bool admitted = true;  // false: the open breaker refused the chain
    bool hit = false;
    std::uint8_t return_scope = 0;
    int domain_index = -1;
    std::uint64_t rate_limited = 0;
    bool hard_failure = false;
    /// Modeled service time of the whole chain: per-probe RTTs, waited-out
    /// timeouts, and retry backoffs.
    double latency_seconds = 0;
  };

  /// Evaluates loop `loop` of `request` with the oracle clock at `t`
  /// (`schedule_time + loop * loop_stride_seconds`).
  Evaluation evaluate(const ProbeRequest& request, int loop, double t) {
    Evaluation out;
    // Breaker gate, once per (chain, loop). While the PoP's breaker is
    // open the chain is skipped-and-counted; it stays un-hit, so a later
    // loop re-queues it within the loop budget.
    if (!breaker_.allow(t)) {
      ++stats_.breaker_skipped;
      out.admitted = false;
      return out;
    }
    for (int domain_index : request.domain_indices) {
      const dns::DnsName& domain =
          (*context_.domains)[static_cast<std::size_t>(domain_index)].name;
      for (int attempt = 0; attempt < request.redundancy; ++attempt) {
        const auto probe = probe_with_retries(
            domain, request.scope, t + attempt * request.attempt_spacing_seconds,
            loop * request.attempt_loop_stride + attempt, &out.latency_seconds);
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
          out.domain_index = domain_index;
          break;
        }
      }
      if (out.hit) break;
    }
    return out;
  }

  /// A chain whose attempts all failed this loop but which a later loop
  /// revisits (skip-and-count bookkeeping).
  void note_requeued() { ++stats_.requeued; }

  std::uint64_t probes_sent() const { return probes_sent_; }

  /// Shard tallies with the breaker's trip count folded in.
  resilience::RetryStats stats() const {
    resilience::RetryStats out = stats_;
    out.breaker_opened = breaker_.opened();
    return out;
  }

 private:
  /// One redundancy attempt (original timing and attempt id); injected
  /// timeouts/SERVFAILs are retried with per-transport timeout plus
  /// jittered exponential backoff, up to the policy's attempt budget.
  googledns::ProbeResult probe_with_retries(const dns::DnsName& domain,
                                            net::Prefix scope, double t,
                                            int attempt_id,
                                            double* latency_seconds) {
    const int max_attempts = std::max(1, context_.retry.max_attempts);
    googledns::ProbeResult result;
    for (int try_index = 0;; ++try_index) {
      ++probes_sent_;
      // Retries keep the attempt id AND the timestamp: the flow hashes to
      // the same cache pool (5-tuple stickiness) and samples the same
      // cache snapshot, so a retry can only recover the answer the fault
      // masked — it never probes extra pools or a newer cache, either of
      // which would let injected loss *increase* recall. The fault oracle
      // re-rolls via `try_index`.
      result = context_.dns->probe(context_.pop, domain, scope, t, transport_,
                                   context_.vp_id, attempt_id, try_index);
      // Timing plane: an answered (or refused) probe costs its transport
      // RTT; a timed-out probe costs the timeout the VP waits out.
      *latency_seconds +=
          result.status == googledns::ProbeStatus::kTimeout
              ? context_.retry.timeout_for(transport_)
              : result.rtt_seconds;
      if (result.status == googledns::ProbeStatus::kOk) {
        consecutive_soft_failures_ = 0;
        breaker_.record_success();
        return result;
      }
      if (result.status == googledns::ProbeStatus::kRateLimited) {
        // Normal operation (the token buckets), not a fault: no retry —
        // the paper's answer to rate limiting was transport choice, so it
        // only feeds the optional UDP→TCP escalation.
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
        // Only an exhausted chain counts against the breaker: a probe
        // that eventually succeeds is healthy, and per-attempt accounting
        // would make a bigger retry budget trip the breaker *more* often
        // under uniform loss.
        breaker_.record_failure(t);
        return result;
      }
      ++stats_.retries;
      const std::uint64_t key = net::stable_seed(
          domain.hash(), std::uint64_t{scope.base().value()},
          std::uint64_t{scope.length()},
          static_cast<std::uint64_t>(context_.pop),
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(attempt_id)));
      const double backoff =
          context_.retry.backoff_before(try_index + 1, key);
      *latency_seconds += backoff;
      stats_.waited_ms += static_cast<std::uint64_t>(
          (context_.retry.timeout_for(transport_) + backoff) * 1000.0);
    }
  }

  /// Escalation is a re-submission concern: after enough consecutive
  /// rate-limited/timed-out UDP answers, every later chain re-submits over
  /// TCP (the paper's forced migration).
  void note_soft_failure() {
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

  ProberContext context_;
  resilience::CircuitBreaker breaker_;
  googledns::Transport transport_;
  int consecutive_soft_failures_ = 0;
  std::uint64_t probes_sent_ = 0;
  resilience::RetryStats stats_;
};

/// The event-driven engine. Pending chains are popped in (loop, sequence)
/// order — the canonical decision order — the moment a window slot frees;
/// each evaluation becomes an in-flight entry whose completion event fires
/// at `issue + latency`, in (virtual_deadline, sequence) order. Requeues
/// enter the pending queue at their parent's evaluation (the outcome is
/// known then) but may not issue before the parent's virtual completion.
///
/// The pending queue is one FIFO per loop index, popped from the lowest
/// non-empty loop. Each FIFO is sorted by sequence without any compare:
/// loop-0 chains arrive from submissions in sequence order, and loop L+1
/// chains are requeues of loop-L evaluations, which themselves ran in
/// sequence order. So the lowest non-empty FIFO's front is the (loop,
/// sequence) minimum, for any interleaving of submit and drain.
class EventProber final : public Prober {
 public:
  EventProber(const ProberContext& context, int window,
              CompletionFn on_complete)
      : context_(context),
        evaluator_(context),
        complete_(std::move(on_complete)),
        window_(std::max(1, window)) {}

  void submit(const ProbeRequest& request) override {
    push_pending(Chain{request, 0, next_chain_seq_++, 0, 0});
  }

  void drain() override {
    refill();
    while (!events_.empty()) {
      clock_ = std::max(clock_, events_.next_deadline());
      const Completion event = events_.pop();
      --in_flight_;
      if (event.resolved && complete_) complete_(event.outcome);
      refill();
    }
    engine_stats_.virtual_elapsed_seconds = clock_;
  }

  resilience::RetryStats stats() const override { return evaluator_.stats(); }
  std::uint64_t probes_sent() const override {
    return evaluator_.probes_sent();
  }
  const EngineStats& engine_stats() const override { return engine_stats_; }

 private:
  struct Chain {
    ProbeRequest request;
    int loop = 0;
    std::uint64_t seq = 0;  // submission sequence, stable across loops
    /// Parent evaluation's virtual completion: loop L+1 of a chain may not
    /// issue before loop L completed.
    double not_before = 0;
    std::uint64_t rate_limited = 0;
  };
  struct Completion {
    bool resolved = false;
    ProbeOutcome outcome;
  };

  void push_pending(Chain chain) {
    const auto loop = static_cast<std::size_t>(chain.loop);
    if (loop >= pending_.size()) pending_.resize(loop + 1);
    pending_[loop].push_back(std::move(chain));
  }

  void refill() {
    std::size_t loop = 0;
    while (in_flight_ < window_) {
      while (loop < pending_.size() && pending_[loop].empty()) ++loop;
      if (loop == pending_.size()) return;
      Chain chain = std::move(pending_[loop].front());
      pending_[loop].pop_front();
      issue(std::move(chain));  // may requeue into loop + 1, never lower
    }
  }

  void issue(Chain chain) {
    const double t = chain.request.schedule_time +
                     chain.loop * chain.request.loop_stride_seconds;
    // Decision plane: evaluate now, in canonical pop order.
    const auto evaluation =
        evaluator_.evaluate(chain.request, chain.loop, t);
    ++engine_stats_.evaluations;
    if (!evaluation.admitted) ++engine_stats_.breaker_drained;
    chain.rate_limited += evaluation.rate_limited;
    // Timing plane: issue when schedule, parent completion, and a window
    // slot all allow.
    const double ready = std::max(t, chain.not_before);
    if (clock_ > ready) ++engine_stats_.window_stalls;
    const double issued_at = std::max(ready, clock_);
    const double deadline = issued_at + evaluation.latency_seconds;
    if (context_.metrics && context_.completion_latency_ms) {
      context_.metrics->observe(*context_.completion_latency_ms,
                                evaluation.latency_seconds * 1000.0);
    }
    ++in_flight_;
    engine_stats_.peak_in_flight =
        std::max(engine_stats_.peak_in_flight, in_flight_);

    Completion completion;
    if (evaluation.hit || chain.loop + 1 >= chain.request.max_loops) {
      completion.resolved = true;
      ProbeOutcome& outcome = completion.outcome;
      outcome.tag = chain.request.tag;
      outcome.hit = evaluation.hit;
      outcome.return_scope = evaluation.return_scope;
      outcome.domain_index = evaluation.domain_index;
      outcome.loop = chain.loop;
      outcome.when = t;
      outcome.rate_limited = chain.rate_limited;
      outcome.hard_failure = evaluation.hard_failure;
      outcome.issued_at = issued_at;
      outcome.completed_at = deadline;
    } else {
      // Un-hit with budget left: the re-submission (next loop, same
      // sequence) enters pending now so decisions stay in canonical
      // order; `not_before` keeps its timing honest.
      if (evaluation.hard_failure) evaluator_.note_requeued();
      ++chain.loop;
      chain.not_before = deadline;
      push_pending(std::move(chain));
    }
    events_.push(deadline, std::move(completion));
  }

  ProberContext context_;
  ChainEvaluator evaluator_;
  CompletionFn complete_;
  EngineStats engine_stats_;
  const int window_;
  /// Indexed by loop; each FIFO is in sequence order (see above).
  std::vector<std::deque<Chain>> pending_;
  Timeline<Completion> events_;
  int in_flight_ = 0;
  double clock_ = 0;
  std::uint64_t next_chain_seq_ = 0;
};

}  // namespace

std::unique_ptr<Prober> make_prober(const ProberContext& context,
                                    const EngineOptions& options,
                                    Prober::CompletionFn on_complete) {
  return std::make_unique<EventProber>(context, options.window,
                                       std::move(on_complete));
}

}  // namespace netclients::core::engine
