#include "runtime/tuner.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>

#include "exec/launch.h"
#include "support/error.h"
#include "support/parallel.h"

namespace paraprox::runtime {

namespace {

/// reopen_at sentinel: the breaker never leaves Open on its own.
constexpr std::uint64_t kNeverReopen =
    std::numeric_limits<std::uint64_t>::max();

}  // namespace

std::vector<int>
modeled_order(const std::vector<VariantProfile>& profiles)
{
    std::vector<int> order;
    for (std::size_t v = 1; v < profiles.size(); ++v) {
        if (profiles[v].meets_toq)
            order.push_back(static_cast<int>(v));
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return profiles[a].speedup > profiles[b].speedup;
    });
    order.push_back(0);
    return order;
}

std::string
to_string(BreakerState state)
{
    switch (state) {
      case BreakerState::Closed: return "closed";
      case BreakerState::Open: return "open";
      case BreakerState::HalfOpen: return "half-open";
    }
    return "<bad-state>";
}

Tuner::Tuner(std::vector<Variant> variants, Metric metric,
             double toq_percent, int check_interval)
    : variants_(std::move(variants)), metric_(metric), toq_(toq_percent),
      check_interval_(check_interval)
{
    PARAPROX_CHECK(!variants_.empty(), "Tuner needs at least one variant");
    PARAPROX_CHECK(variants_[0].aggressiveness == 0,
                   "variants[0] must be the exact kernel");
    PARAPROX_CHECK(check_interval_ > 0, "check interval must be positive");
}

const std::vector<VariantProfile>&
Tuner::calibrate(const std::vector<std::uint64_t>& training_seeds,
                 bool parallel)
{
    PARAPROX_CHECK(!training_seeds.empty(),
                   "calibration needs at least one training input");

    // First the V priced jobs: each prices variant v once, instrumented,
    // on the first training input.  Then one job per training input runs
    // exact and every variant in Fast mode, back to back on one thread,
    // so each variant's wall is timed beside exact's under the same load;
    // the priced jobs, ~10x a Fast run each, are done by then and load
    // no input's runs more than another's.  Every job on seed s shares
    // inputs[s], so each training input is built once, and seed s's job
    // drops it, so only the inputs in flight stay built.  Results are
    // aggregated serially in a fixed order, so a parallel sweep ranks
    // what a serial one does.  The sweep runs outside the tuner lock so
    // concurrent serve_batch() callers keep serving the previous
    // selection during a recalibration.
    const std::size_t num_variants = variants_.size();
    const std::size_t num_seeds = training_seeds.size();
    std::vector<std::optional<Input>> inputs;
    inputs.reserve(num_seeds);
    for (const std::uint64_t seed : training_seeds)
        inputs.emplace_back(seed);
    std::vector<VariantRun> priced(num_variants);
    std::vector<VariantRun> fast(num_variants * num_seeds);
    auto price = [&](std::size_t v) {
        priced[v] = variants_[v].run(*inputs[0]);
    };
    auto time_input = [&](std::size_t s) {
        for (std::size_t v = 0; v < num_variants; ++v)
            fast[v * num_seeds + s] = execute(static_cast<int>(v), *inputs[s]);
        inputs[s].reset();
    };
    if (parallel) {
        ThreadPool::global().parallel_for(num_variants, price);
        ThreadPool::global().parallel_for(num_seeds, time_input);
    } else {
        for (std::size_t v = 0; v < num_variants; ++v)
            price(v);
        for (std::size_t s = 0; s < num_seeds; ++s)
            time_input(s);
    }

    // Cycles come from the priced run and quality from the Fast runs, so
    // a variant's two outputs on the first input must be bit-identical
    // or, as float atomics sum in an order set by the mode and the
    // scheduler, within the TOQ of each other; else it counts as trapped.
    auto usable = [&](std::size_t v) {
        const VariantRun* runs = &fast[v * num_seeds];
        if (priced[v].trapped ||
            std::any_of(runs, runs + num_seeds,
                        [](const VariantRun& run) { return run.trapped; }))
            return false;
        const std::vector<float>& a = priced[v].output;
        const std::vector<float>& b = runs[0].output;
        const std::size_t bytes = a.size() * sizeof(float);
        return a.size() == b.size() &&
               (std::memcmp(a.data(), b.data(), bytes) == 0 ||
                quality_percent(metric_, a, b) >= toq_);
    };
    auto fast_wall = [&](std::size_t v) {
        double wall = 0.0;
        for (std::size_t s = 0; s < num_seeds; ++s)
            wall += fast[v * num_seeds + s].wall_seconds;
        return wall;
    };
    // The verdict: slower than exact on every input, each comparison made
    // within one job.  A run that reports no wall gives no verdict.
    auto slower_everywhere = [&](std::size_t v) {
        for (std::size_t s = 0; s < num_seeds; ++s) {
            const double exact = fast[s].wall_seconds;
            const double wall = fast[v * num_seeds + s].wall_seconds;
            if (exact <= 0.0 || wall <= exact)
                return false;
        }
        return true;
    };

    std::lock_guard<std::mutex> lock(mutex_);
    PARAPROX_CHECK(usable(0),
                   "exact kernel trapped during calibration, or its priced "
                   "and Fast outputs differ beyond the TOQ");
    const double exact_cycles = priced[0].modeled_cycles;
    const double exact_wall = fast_wall(0);
    profiles_.assign(num_variants, {});
    profiles_[0] = {variants_[0].label, 1.0, 1.0, 100.0, true, false};

    for (std::size_t v = 1; v < num_variants; ++v) {
        VariantProfile& profile = profiles_[v];
        profile.label = variants_[v].label;
        if (!usable(v)) {
            profile.trapped = true;
            continue;
        }
        double quality_acc = 0.0;
        for (std::size_t s = 0; s < num_seeds; ++s)
            quality_acc += quality_percent(metric_, fast[s].output,
                                           fast[v * num_seeds + s].output);
        const double cycles = priced[v].modeled_cycles;
        const double wall = fast_wall(v);
        profile.quality = quality_acc / static_cast<double>(num_seeds);
        profile.speedup = cycles > 0.0 ? exact_cycles / cycles : 1.0;
        profile.wall_speedup = wall > 0.0 ? exact_wall / wall : 1.0;
        profile.meets_toq = profile.quality >= toq_;
        profile.slower_than_exact = slower_everywhere(v);
    }

    // Candidates: the modeled chain without the host slowdowns; the exact
    // kernel terminates it.
    fallback_order_ = modeled_order(profiles_);
    std::erase_if(fallback_order_, [&](int v) {
        return profiles_[v].slower_than_exact;
    });
    rebuild_speed_order_locked();

    selected_ = fallback_order_.front();
    calibrated_ = true;
    audit_next_ = false;
    reset_health_locked();
    return profiles_;
}

CalibrationState
Tuner::calibration_state() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    PARAPROX_CHECK(calibrated_,
                   "calibration_state() needs a calibrated tuner");
    return {profiles_, fallback_order_, selected_};
}

bool
Tuner::restore_calibration(const CalibrationState& state)
{
    // Validate against the live variant list before touching anything: a
    // stale or foreign calibration (renamed variants, different variant
    // count, malformed fallback chain) must read as a miss, not install
    // a selection pointing at the wrong kernel.
    if (state.profiles.size() != variants_.size())
        return false;
    for (std::size_t v = 0; v < variants_.size(); ++v) {
        if (state.profiles[v].label != variants_[v].label)
            return false;
    }
    if (state.fallback_order.empty() || state.fallback_order.back() != 0)
        return false;
    std::vector<bool> seen(variants_.size(), false);
    for (const int index : state.fallback_order) {
        if (index < 0 ||
            index >= static_cast<int>(variants_.size()) || seen[index])
            return false;
        seen[index] = true;
        if (index != 0 && (!state.profiles[index].meets_toq ||
                           state.profiles[index].trapped ||
                           state.profiles[index].slower_than_exact))
            return false;
    }
    if (state.selected != state.fallback_order.front())
        return false;
    // The exact kernel can never have trapped, or lost to itself, during
    // a real calibration; a record claiming so (stale write from an
    // edited module, hostile bytes that survive the checksum) would
    // silently drop index 0 from the degradation ladder.  Reject it like
    // any other shape mismatch.
    if (state.profiles[0].trapped || !state.profiles[0].meets_toq ||
        state.profiles[0].slower_than_exact)
        return false;

    std::lock_guard<std::mutex> lock(mutex_);
    profiles_ = state.profiles;
    fallback_order_ = state.fallback_order;
    selected_ = state.selected;
    rebuild_speed_order_locked();
    calibrated_ = true;
    audit_next_ = true;
    reset_health_locked();
    return true;
}

const std::vector<VariantProfile>&
Tuner::recalibrate(const std::vector<std::uint64_t>& training_seeds,
                   bool parallel)
{
    const auto& profiles = calibrate(training_seeds, parallel);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.recalibrations;
    return profiles;
}

VariantRun
Tuner::execute(int index, const Input& input) const
{
    const Variant& variant = variants_[index];
    return variant.run_fast ? variant.run_fast(input) : variant.run(input);
}

std::vector<ServedRun>
Tuner::run_with_fallback(int index, const std::vector<Input>& inputs)
{
    const Variant& variant = variants_[index];
    std::vector<VariantRun> runs;
    if (inputs.size() > 1 && variant.run_batch) {
        std::vector<std::uint64_t> seeds;
        seeds.reserve(inputs.size());
        for (const Input& input : inputs)
            seeds.push_back(input.seed());
        runs = variant.run_batch(seeds);
        PARAPROX_CHECK(runs.size() == inputs.size(),
                       "run_batch returned a short batch");
    } else {
        // One launch per input: hand each its own member's token from
        // the caller's batch scope, which is sized for a coalesced launch
        // and would otherwise leave every member of a sequential batch
        // uncancellable.
        const std::vector<const vm::CancelToken*>* tokens =
            exec::current_batch_cancel_tokens();
        if (tokens && tokens->size() != inputs.size())
            tokens = nullptr;
        runs.reserve(inputs.size());
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const std::vector<const vm::CancelToken*> member = {
                tokens ? (*tokens)[i] : nullptr};
            exec::BatchCancelScope scope(&member);
            runs.push_back(execute(index, inputs[i]));
        }
    }

    std::vector<ServedRun> served(runs.size());
    std::vector<std::size_t> trapped;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        served[i].run = std::move(runs[i]);
        served[i].index = index;
        served[i].label = variant.label;
        if (index != 0 && served[i].run.trapped && !served[i].run.cancelled)
            trapped.push_back(i);
    }
    if (trapped.empty())
        return served;

    // Unsafe execution: report each trap to the circuit breaker (which,
    // under the default policy, demotes the variant permanently — §5,
    // safety) and serve those inputs with the exact kernel.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t n = 0; n < trapped.size(); ++n)
            record_failure_locked(index);
    }
    for (const std::size_t i : trapped) {
        served[i].run = execute(0, inputs[i]);
        served[i].index = 0;
        served[i].label = variants_[0].label;
        served[i].trap_fallback = true;
    }
    return served;
}

VariantRun
Tuner::invoke(const Input& input)
{
    int index;
    std::uint64_t invocation;
    bool audit_now = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PARAPROX_CHECK(calibrated_, "call calibrate() before invoke()");
        invocation = ++stats_.invocations;
        index = selected_;
        // A restored calibration audits on its first approximate
        // invocation, whatever the check interval says.
        if (audit_next_) {
            audit_now = index != 0;
            audit_next_ = false;
        }
    }

    ServedRun served = std::move(run_with_fallback(index, {input})[0]);
    // A cancelled run is the harness dropping the request and a trap
    // fallback already reported its failure: neither gets a quality
    // audit.
    if (served.run.cancelled || served.trap_fallback)
        return std::move(served.run);

    const bool audit =
        audit_now || (index != 0 && invocation % check_interval_ == 0);
    if (audit) {
        // The exact run reuses the served run's input.  An exact run
        // that traps has no output to judge by: the audit is void.
        VariantRun exact = execute(0, input);
        if (exact.trapped) {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.void_audits;
            return std::move(served.run);
        }
        const double quality =
            quality_percent(metric_, exact.output, served.run.output);
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.quality_checks;
        if (quality < toq_) {
            ++stats_.violations;
            record_failure_locked(index);
        }
    }
    return std::move(served.run);
}

BatchServed
Tuner::serve_batch(const std::vector<Input>& inputs)
{
    BatchServed batch;
    if (inputs.empty())
        return batch;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PARAPROX_CHECK(calibrated_, "call calibrate() before serve_batch()");
        stats_.invocations += inputs.size();
        batch.index = resolve_serving_index_locked(&batch.degraded);
    }
    batch.label = variants_[batch.index].label;
    batch.runs = run_with_fallback(batch.index, inputs);
    for (ServedRun& served : batch.runs)
        served.degraded = batch.degraded && !served.trap_fallback;
    return batch;
}

VariantRun
Tuner::run_exact(const Input& input) const
{
    return execute(0, input);
}

void
Tuner::set_quarantine(const QuarantineConfig& config)
{
    PARAPROX_CHECK(config.failure_threshold >= 1,
                   "quarantine failure threshold must be >= 1");
    PARAPROX_CHECK(config.cooldown_growth >= 1.0,
                   "quarantine cooldown growth must be >= 1");
    PARAPROX_CHECK(config.probe_quota >= 1,
                   "quarantine probe quota must be >= 1");
    std::lock_guard<std::mutex> lock(mutex_);
    quarantine_ = config;
}

bool
Tuner::record_failure(int index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return record_failure_locked(index);
}

std::vector<std::string>
Tuner::quarantined_labels() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (std::size_t v = 0; v < health_.size(); ++v) {
        if (health_[v].state != BreakerState::Closed)
            out.push_back(variants_[v].label);
    }
    return out;
}

bool
Tuner::adopt_quarantine(const std::string& label)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!calibrated_)
        return false;
    for (std::size_t v = 1; v < variants_.size(); ++v) {
        if (variants_[v].label != label)
            continue;
        if (health_[v].state != BreakerState::Open)
            open_breaker_locked(static_cast<int>(v));
        return true;
    }
    return false;
}

bool
Tuner::record_failure_locked(int index)
{
    if (!calibrated_ || index <= 0 ||
        index >= static_cast<int>(variants_.size()))
        return false;
    VariantHealth& health = health_[index];
    if (health.state == BreakerState::Open)
        return false;  // Already quarantined; nothing new to learn.

    // A failing half-open probe path reports through record_probe(); a
    // plain failure on a HalfOpen variant (e.g. a shadow audit racing
    // reinstatement) re-opens it directly.
    const std::uint64_t now = stats_.invocations;
    health.failures.push_back(now);
    while (!health.failures.empty() &&
           now - health.failures.front() > quarantine_.failure_window)
        health.failures.pop_front();
    if (health.state == BreakerState::Closed &&
        static_cast<int>(health.failures.size()) <
            quarantine_.failure_threshold)
        return false;

    open_breaker_locked(index);
    return true;
}

void
Tuner::open_breaker_locked(int index)
{
    VariantHealth& health = health_[index];
    health.state = BreakerState::Open;
    health.failures.clear();
    health.probe_successes = 0;
    ++health.offenses;
    ++stats_.quarantines;
    if (quarantine_.cooldown == 0) {
        // Legacy policy: a quarantined variant never comes back short of
        // a recalibration.
        health.reopen_at = kNeverReopen;
    } else {
        double cooldown =
            static_cast<double>(quarantine_.cooldown) *
            std::pow(quarantine_.cooldown_growth, health.offenses - 1);
        cooldown = std::min(
            cooldown, static_cast<double>(quarantine_.max_cooldown));
        health.reopen_at =
            stats_.invocations + static_cast<std::uint64_t>(cooldown);
    }
    if (selected_ == index) {
        ++stats_.backoffs;
        reselect_locked();
    }
}

void
Tuner::reselect_locked()
{
    // The chain is never mutated after calibration: selection simply
    // lands on its first healthy entry.  Index 0 terminates the chain
    // and is exempt from quarantine, so a winner always exists.
    for (const int index : fallback_order_) {
        if (health_[index].state == BreakerState::Closed) {
            selected_ = index;
            return;
        }
    }
    selected_ = 0;
}

void
Tuner::reset_health_locked()
{
    health_.assign(variants_.size(), {});
}

void
Tuner::rebuild_speed_order_locked()
{
    // Degradation ladder rungs: every variant neither trapped nor slower
    // than exact — exact and below-TOQ ones included — fastest-first by
    // modeled cycles.  Under load shedding the serving path walks this
    // list toward cheaper entries.
    speed_order_.clear();
    for (std::size_t v = 0; v < variants_.size(); ++v) {
        if (!profiles_[v].trapped && !profiles_[v].slower_than_exact)
            speed_order_.push_back(static_cast<int>(v));
    }
    std::stable_sort(speed_order_.begin(), speed_order_.end(),
                     [&](int a, int b) {
                         return profiles_[a].speedup > profiles_[b].speedup;
                     });
}

int
Tuner::resolve_serving_index_locked(bool* degraded) const
{
    *degraded = false;
    const int base = selected_;
    if (degradation_level_ <= 0 || speed_order_.empty())
        return base;
    const auto at = std::find(speed_order_.begin(), speed_order_.end(),
                              base);
    if (at == speed_order_.end())
        return base;
    // Walk toward the fastest rung, one per degradation level, skipping
    // quarantined variants.  The ladder saturates at the fastest healthy
    // entry rather than wrapping.
    int resolved = base;
    int steps = degradation_level_;
    for (auto it = at; it != speed_order_.begin() && steps > 0;) {
        --it;
        if (health_[*it].state != BreakerState::Closed)
            continue;
        resolved = *it;
        --steps;
    }
    *degraded = resolved != base;
    return resolved;
}

int
Tuner::probe_candidate()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!calibrated_)
        return -1;
    for (const int index : fallback_order_) {
        if (index == 0)
            continue;
        VariantHealth& health = health_[index];
        if (health.state == BreakerState::HalfOpen)
            return index;
        if (health.state == BreakerState::Open &&
            health.reopen_at != kNeverReopen &&
            stats_.invocations >= health.reopen_at) {
            health.state = BreakerState::HalfOpen;
            health.probe_successes = 0;
            return index;
        }
    }
    return -1;
}

VariantRun
Tuner::run_probe(int index, const Input& input)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        PARAPROX_CHECK(index > 0 &&
                           index < static_cast<int>(variants_.size()),
                       "run_probe: bad variant index");
        ++stats_.probes;
    }
    return execute(index, input);
}

bool
Tuner::record_probe(int index, bool healthy)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (index <= 0 || index >= static_cast<int>(variants_.size()))
        return false;
    VariantHealth& health = health_[index];
    if (health.state != BreakerState::HalfOpen)
        return false;  // Stale report; breaker moved on.
    if (!healthy) {
        // Still sick: back to Open with a grown cooldown.
        open_breaker_locked(index);
        return false;
    }
    if (++health.probe_successes < quarantine_.probe_quota)
        return false;
    health.state = BreakerState::Closed;
    health.failures.clear();
    health.probe_successes = 0;
    ++stats_.reinstatements;
    reselect_locked();
    return true;
}

std::vector<BreakerSnapshot>
Tuner::breaker_snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<BreakerSnapshot> out;
    out.reserve(variants_.size());
    for (std::size_t v = 0; v < variants_.size(); ++v) {
        BreakerSnapshot snap;
        snap.label = variants_[v].label;
        if (v < health_.size()) {
            snap.state = health_[v].state;
            snap.failures = static_cast<int>(health_[v].failures.size());
            snap.offenses = health_[v].offenses;
            snap.reopen_at = health_[v].reopen_at;
        }
        out.push_back(std::move(snap));
    }
    return out;
}

void
Tuner::set_degradation_level(int level)
{
    std::lock_guard<std::mutex> lock(mutex_);
    degradation_level_ = std::max(0, level);
}

int
Tuner::degradation_level() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return degradation_level_;
}

int
Tuner::selected_index() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return selected_;
}

const std::string&
Tuner::selected_label() const
{
    // Lock even though only an int is read: breaker openings and probe
    // reinstatements (reselect_locked) rewrite selected_ from the serving
    // path, and an unsynchronized read is a data race (labels themselves
    // are immutable, so the returned reference is safe to hold).
    std::lock_guard<std::mutex> lock(mutex_);
    return variants_[selected_].label;
}

TunerStats
Tuner::stats_snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

}  // namespace paraprox::runtime
