/// @file
/// Benchmark-side plumbing shared by every workload: seeded streams,
/// percentiles, the open-loop arrival schedule, metric-name validation,
/// the in-memory span recorder, the output gate and the JSON line each
/// phase prints.  Nothing here reaches into the library; the workloads
/// call the library's public entry points and record around them.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/quality.h"
#include "runtime/tuner.h"

namespace perfbench {

namespace runtime = paraprox::runtime;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
double ms_since(Clock::time_point start);

/// SplitMix64: the only randomness source, so a seed fixes every input.
class Rng {
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    double uniform();  ///< [0, 1)
    std::size_t below(std::size_t bound) { return next() % bound; }

  private:
    std::uint64_t state_;
};

/// Nearest-rank percentile (q in [0, 1]) of @p values; 0 when empty.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Mean of @p values without the lowest and highest quarter (at least one
/// of each once there are three): near the median, but it moves smoothly
/// with the share of slow samples where a median jumps between them.
double interquartile_mean(std::vector<double> values);

/// One timed observation: when it completed and its value.
struct Timed {
    std::int64_t at_ns = 0;
    double value = 0.0;
};

/// Tail percentile robust to one bursty stall: split @p samples in
/// completion order into up to @p max_windows consecutive windows of at
/// least @p min_window samples each (so a p99 has >= 10 samples beyond
/// it), take the percentile per window, and return the windows'
/// interquartile mean.
double windowed_percentile(std::vector<Timed> samples, double q,
                           std::size_t min_window = 1000,
                           std::size_t max_windows = 20);

/// Completion rate (per second) robust to a transient stall: the
/// interquartile mean over @p windows equal windows of [@p start_ns,
/// @p start_ns + @p seconds) of each window's rate, its completions
/// (@p samples' at_ns) after the first divided by the time from its
/// first to its last.
double windowed_rate(const std::vector<Timed>& samples, std::int64_t start_ns,
                     double seconds, int windows = 10);

/// Poisson arrivals at @p rate_hz over [0, @p seconds): due offsets in
/// seconds, ascending.  Equal seeds give identical schedules.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_hz,
                                     double seconds);

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);

/// Largest resident set of this process (and, with @p children, of any
/// waited-for child), in MiB.
double peak_rss_mb(bool children = false);

/// One seeded request stream over weighted families.  Families are drawn
/// in shuffled blocks holding each family `slots` times, so every run
/// serves the same mix whatever the seed; each family draws its inputs
/// from a fixed pool of distinct seeds, so the output gate replays each
/// (variant, input) pair once however long the run.
struct StreamSpec {
    std::vector<int> slots;  ///< Per family, per block.
    std::size_t inputs_per_family = 32;
};

struct Draw {
    std::size_t family = 0;
    std::uint64_t input_seed = 0;
};

/// One client's position in the stream: its generator and the rest of
/// its current block.
struct StreamCursor {
    explicit StreamCursor(std::uint64_t seed) : rng(seed) {}
    Rng rng;
    std::vector<std::size_t> block;
};

class RequestStream {
  public:
    RequestStream(std::uint64_t seed, StreamSpec spec);
    Draw draw(StreamCursor& cursor) const;
    const std::vector<std::uint64_t>& inputs(std::size_t family) const
    {
        return inputs_[family];
    }

  private:
    StreamSpec spec_;
    std::vector<std::vector<std::uint64_t>> inputs_;
};

// ---- Spans ------------------------------------------------------------

/// In-memory spans recorded by the benchmark around its calls into each
/// layer.  Disarmed recorders cost one branch per span.  Spans of one
/// request share its id; a span's parent is the span it nests in.
struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 for a root span.
    std::uint64_t request = 0;
    std::string layer;
    std::int64_t start_ns = 0;  ///< Since the recorder's epoch.
    std::int64_t end_ns = 0;
    int tid = 0;
};

class SpanRecorder {
  public:
    explicit SpanRecorder(bool armed);
    bool armed() const { return armed_; }

    std::int64_t now_ns() const;
    /// Record a finished span; returns its id (0 when disarmed).
    std::uint64_t add(std::uint64_t parent, std::uint64_t request,
                      const std::string& layer, std::int64_t start_ns,
                      std::int64_t end_ns, int tid);

    /// Self time per layer, summed over spans: a span's duration minus
    /// the durations of its direct children (children nest inside their
    /// parent on one thread, or are attributed intervals from a replay).
    std::map<std::string, double> self_seconds() const;

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    bool write_chrome(const std::string& path) const;

  private:
    const bool armed_;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
    std::uint64_t next_id_ = 1;
};

// ---- Output gate ------------------------------------------------------

/// Bit-identical replay and TOQ scoring of served outputs.  Requests hand
/// in (family, variant label, input, output); the first output seen per
/// (family, label, input) is kept and every later one must match it
/// bit for bit, so memory stays bounded by the input pool.  verify() then
/// replays each kept key through the variant's run_fast closure.
struct GateFamily {
    std::string name;
    runtime::Metric metric = runtime::Metric::L1Norm;
    double toq = 90.0;
    /// Replay closures; variants[0] is exact.
    std::vector<runtime::Variant> variants;
};

struct GateResult {
    std::uint64_t checked = 0;     ///< Ok outputs compared.
    std::uint64_t mismatches = 0;  ///< Outputs differing from the replay.
    std::uint64_t toq_met = 0;     ///< Ok outputs meeting the family TOQ.
    double quality_sum = 0.0;      ///< Over matching Ok outputs.
};

/// What replaying one served (variant, input) through run_fast cost.
struct ReplayInfo {
    double exec_us = 0.0;
    double instructions = 0.0;
};

class OutputGate {
  public:
    explicit OutputGate(std::vector<GateFamily> families);
    const GateFamily& family(std::size_t index) const
    {
        return families_[index];
    }
    std::size_t num_families() const { return families_.size(); }

    /// Thread-safe; called from client threads after a request resolved.
    void record(std::size_t family, const std::string& label,
                std::uint64_t input, const std::vector<float>& output);

    /// Replay every kept key; quality and TOQ are scored per recorded
    /// output against the exact replay of its input.
    GateResult verify();

    /// Replay cost of (family, label, input); valid after verify(),
    /// zeros when the key was never served.
    ReplayInfo replay_info(std::size_t family, const std::string& label,
                           std::uint64_t input) const;

  private:
    struct Key {
        std::size_t family;
        std::string label;
        std::uint64_t input;
        bool operator<(const Key& other) const;
    };
    struct Kept {
        std::vector<float> output;
        std::uint64_t count = 0;
        std::uint64_t mismatches = 0;
        ReplayInfo replay;
    };

    std::vector<GateFamily> families_;
    mutable std::mutex mutex_;
    std::map<Key, Kept> kept_;
};

/// Index of @p label in @p variants, or -1.
int find_variant(const std::vector<runtime::Variant>& variants,
                 const std::string& label);

// ---- Phase output -----------------------------------------------------

/// One phase's result: metric values by name and the behaviour
/// fingerprint, printed as a single JSON line on stdout.
struct PhaseResult {
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> fingerprint;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
};

void print_result(const std::string& phase, const PhaseResult& result);

/// Percentile summary helpers that write name_p50 / name_p99.
void put_p50_p99(PhaseResult& result, const std::string& name,
                 const std::vector<double>& values);

/// Run the built-in checks (percentile, schedule, names); 0 on success.
int self_test();

}  // namespace perfbench
