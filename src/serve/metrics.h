/// @file
/// Observability for the serving subsystem: monotonic counters, a
/// queue-depth gauge, and a lock-free log2-bucketed latency histogram
/// with percentile snapshot export.
///
/// Everything here is bumped from worker threads on the request path, so
/// the primitives are plain atomics — no locks, no allocation.  Snapshots
/// are consistent per counter, not across counters; that is the usual
/// contract for serving metrics.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "runtime/tuner.h"
#include "support/counters.h"

namespace paraprox::serve {

/// Point-in-time view of the latency distribution, in seconds.
/// Percentiles are bucket upper bounds (conservative: the true quantile
/// is at most the reported value, within one power-of-two bucket).
struct LatencySnapshot {
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/// Log2-bucketed histogram over [1 ns, ~2^63 ns); record() is wait-free.
class LatencyHistogram {
  public:
    void record(double seconds);
    LatencySnapshot snapshot() const;

  private:
    static constexpr int kBuckets = 64;
    /// buckets_[i] counts samples with bit_width(nanoseconds) == i + 1,
    /// i.e. latencies in [2^i, 2^(i+1)) ns.
    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

/// Point-in-time view of the batch-size distribution.
struct BatchSnapshot {
    std::uint64_t batches = 0;    ///< Every pop, singletons included.
    std::uint64_t coalesced = 0;  ///< Batches of size >= 2.
    /// Requests that rode a coalesced (size >= 2) batch.
    std::uint64_t coalesced_requests = 0;
    std::uint64_t max_size = 0;
    double mean_size = 0.0;       ///< Across all batches.
};

/// Exact-count batch-size distribution; record() is wait-free.  Sizes
/// beyond kMaxSize saturate into the top bucket (max_size still reports
/// the true maximum seen).
class BatchHistogram {
  public:
    void record(std::size_t size);
    BatchSnapshot snapshot() const;

  private:
    static constexpr std::size_t kMaxSize = 64;
    /// by_size_[i] counts batches of exactly i+1 members.
    std::atomic<std::uint64_t> by_size_[kMaxSize] = {};
    std::atomic<std::uint64_t> total_requests_{0};
    std::atomic<std::uint64_t> max_size_{0};
};

/// Every counter and gauge of Metrics, one X(type, name) row each (see
/// support/counters.h): std::uint64_t rows are monotonic counters,
/// std::int64_t rows are gauges.  The table generates the Metrics
/// atomics, the MetricsSnapshot fields, Metrics::snapshot(), the rows of
/// format_metrics and net::ReplicaStats with its wire codec.
#define PARAPROX_SERVE_COUNTERS(X)                                            \
    X(std::uint64_t, accepted)                                                \
    X(std::uint64_t, rejected_full)                                           \
    X(std::uint64_t, rejected_unknown)                                        \
    X(std::uint64_t, rejected_stopped)                                        \
    /* Submits that lost the race with stop(): the stopped pre-check */       \
    /* passed but the queue was already closed.  Surfaced to the client */    \
    /* with the same "service stopped" reason as the pre-check path. */       \
    X(std::uint64_t, rejected_closed_race)                                    \
    /* Admissions refused because the request's deadline had already */       \
    /* passed or could not be met behind the current backlog. */              \
    X(std::uint64_t, rejected_deadline)                                       \
    X(std::uint64_t, served)                                                  \
    /* Accepted requests resolved with ServeStatus::DeadlineExceeded at */    \
    /* the worker (expired while queued; not counted in `served`). */         \
    X(std::uint64_t, deadline_expired)                                        \
    /* Requests whose approximate run trapped and were re-served exact. */    \
    X(std::uint64_t, trap_fallbacks)                                          \
    /* Requests served below the calibrated selection by the */               \
    /* load-shedding degradation ladder. */                                   \
    X(std::uint64_t, degraded_serves)                                         \
    /* Ladder movements: steps toward cheaper variants / back up. */          \
    X(std::uint64_t, degrade_steps)                                           \
    X(std::uint64_t, restore_steps)                                           \
    /* Current service-wide degradation level (gauge; 0 = full quality). */   \
    X(std::int64_t, degradation_level)                                        \
    X(std::uint64_t, shadow_runs)                                             \
    X(std::uint64_t, shadow_violations)                                       \
    X(std::uint64_t, recalibrations)                                          \
    X(std::uint64_t, exact_while_recalibrating)                               \
    /* Drift events this replica ceded to the fleet's calibration plane */    \
    /* (a peer held the drift lease or had already published); the */         \
    /* kernel served exact until adoption instead of recalibrating. */        \
    X(std::uint64_t, suppressed_recalibrations)                               \
    /* Calibrations installed from a peer's publish via */                    \
    /* adopt_calibration() (scale-out: recalibrate once, adopt */             \
    /* everywhere). */                                                        \
    X(std::uint64_t, adopted_calibrations)                                    \
    /* adopt_calibration() calls whose payload failed restore */              \
    /* validation (arity/label drift across module versions). */              \
    X(std::uint64_t, adoption_rejects)                                        \
    /* Kernels registered with a calibration restored from the artifact */    \
    /* store (no profiling sweep at registration). */                         \
    X(std::uint64_t, warm_registrations)                                      \
    /* Pipelines registered with a joint calibration restored from the */     \
    /* artifact store: zero joint-search probe runs, zero sweeps. */          \
    X(std::uint64_t, warm_pipelines)                                          \
    /* Data-tier kernels registered with a precision calibration */           \
    /* restored from the artifact store: zero profiling runs, zero plan */    \
    /* search. */                                                             \
    X(std::uint64_t, warm_data_tiers)                                         \
    /* Launches stopped mid-flight by a fired deadline token: the */          \
    /* request resolved DeadlineExceeded without finishing its kernel. */     \
    X(std::uint64_t, cancelled_launches)                                      \
    /* Launches the hung-launch watchdog cancelled (wall ceiling */           \
    /* exceeded); each charges the variant's breaker like a trap. */          \
    X(std::uint64_t, watchdog_cancels)                                        \
    /* Requests re-served by the exact kernel after a watchdog cancel. */     \
    X(std::uint64_t, watchdog_fallbacks)                                      \
    /* Work-groups completed across every serve launch (cancelled ones */     \
    /* included: groups that finished before the token fired still */         \
    /* burned CPU).  The cancellation bench reads the delta between a */      \
    /* cancelling and a non-cancelling run as "wasted work saved". */         \
    X(std::uint64_t, launch_groups_completed)                                 \
    /* Requests queued and not yet popped by a worker (gauge). */             \
    X(std::int64_t, queue_depth)

/// Plain-struct copy of every counter, for printing and assertions.
struct MetricsSnapshot {
    PARAPROX_SERVE_COUNTERS(PARAPROX_COUNTER_FIELD)
    /// Tuner-owned totals across all kernels: ApproxService::snapshot()
    /// aggregates them in; they stay 0 in a bare Metrics::snapshot().
    PARAPROX_TUNER_TOTALS(PARAPROX_COUNTER_FIELD)
    /// Sojourn time (admission to resolution) per request.
    LatencySnapshot latency;
    /// Batch-size distribution of worker pops (gather-window coalescing).
    BatchSnapshot batch;
    /// Amortized per-request latency inside coalesced batches: the batch
    /// serve wall clock divided by its member count, recorded once per
    /// member.  Compare against `latency` to see what coalescing buys.
    LatencySnapshot batch_latency;
};

/// Human-readable multi-line report, used by tools and bench smoke runs:
/// one row per counter in both tables, labelled with its field name,
/// then the latency and batch histograms.
std::string format_metrics(const MetricsSnapshot& snapshot);

/// The registry the service, monitor, and tuner report through.  Fields
/// are public atomics: the request path bumps them directly.
class Metrics {
  public:
#define PARAPROX_METRICS_ATOMIC(type, name) std::atomic<type> name{0};
    PARAPROX_SERVE_COUNTERS(PARAPROX_METRICS_ATOMIC)
#undef PARAPROX_METRICS_ATOMIC
    LatencyHistogram latency;
    BatchHistogram batch;
    LatencyHistogram batch_latency;

    MetricsSnapshot snapshot() const;
};

}  // namespace paraprox::serve
