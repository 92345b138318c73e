#pragma once

// Work-stealing task scheduler for uneven shard streams.
//
// `parallel_map` hands shards out through one shared atomic counter, which
// is fair when every shard costs about the same. A multi-file trace corpus
// breaks that assumption: files differ in size, chunks differ in record
// mix, and a straggler file serialises the tail of the scan. `steal_map`
// keeps the same external contract as `parallel_map` — results returned
// *by task index*, so the caller's canonical-order merge is untouched —
// but schedules through per-worker deques with steal-half rebalancing.
//
// Determinism: execution order is intentionally racy (who steals what
// depends on timing), and that is fine *because nothing observable depends
// on it*. Each task writes only results[i]; shared accumulators a task
// touches must be commutative (atomic integer adds, sketch cells), exactly
// the parallel_map rules. The caller merges results in task-index order,
// so `ChromiumResult` and friends stay byte-identical at any REPRO_THREADS
// and any steal interleaving.
//
// Telemetry: `exec.steal.tasks` counts scheduled tasks and is a function
// of the input alone, so it is the one metric recorded in the registry.
// Steal tallies (steals, stolen tasks, attempts) are scheduling noise —
// different on every run — so they go only to the caller's
// `StealTelemetry`, never to the registry: a timing-less metrics export
// stays byte-identical at any REPRO_THREADS.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/exec/exec.h"

namespace netclients::core::exec {

/// Per-call scheduling telemetry, for callers (`corpusctl scan`,
/// perfbench's ditl_scan) that want a steal ratio; the registry never
/// sees these tallies.
struct StealTelemetry {
  std::size_t tasks = 0;        // tasks scheduled (== n)
  std::size_t workers = 0;      // workers that participated
  std::size_t steals = 0;       // successful steal-half operations
  std::size_t stolen_tasks = 0; // tasks moved by those steals
  std::size_t attempts = 0;     // steal probes, successful or not
};

namespace detail {

/// Type-erased core: runs task(i) for i in [0, n) over `threads` workers
/// using per-worker deques with steal-half. The callable is invoked for
/// each index exactly once; index-order result collection is layered on
/// top by steal_map.
void steal_run(std::size_t n, int threads,
               const std::function<void(std::size_t)>& task,
               StealTelemetry* telemetry);

}  // namespace detail

/// Work-stealing sibling of parallel_map: runs fn(i) for every i in
/// [0, n) and returns the results *in index order*. `threads <= 0` means
/// thread_count(); 1 (or n <= 1) runs inline in index order on the
/// calling thread. Same nesting rule as parallel_map: fn must not itself
/// fan out through the shared pool.
template <typename Fn>
auto steal_map(std::size_t n, int threads, Fn&& fn,
               StealTelemetry* telemetry = nullptr)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  std::vector<R> results(n);
  detail::steal_run(
      n, threads, [&](std::size_t i) { results[i] = fn(i); }, telemetry);
  return results;
}

}  // namespace netclients::core::exec
