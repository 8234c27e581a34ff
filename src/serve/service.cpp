#include "serve/service.h"

#include <chrono>

#include "exec/launch.h"
#include "runtime/quality.h"
#include "support/error.h"
#include "support/faultinject.h"
#include "support/parallel.h"

namespace paraprox::serve {

namespace {

std::size_t
resolve_workers(std::size_t requested)
{
    if (requested != 0)
        return requested;
    if (const std::size_t env = thread_override_from_env())
        return env;
    const std::size_t hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 4;
}

/// Check interval for registered tuners: the Tuner default.  The service
/// audits through its QualityMonitor and never calls invoke(), so the
/// interval does not pace anything here.
constexpr int kCheckInterval = 50;

}  // namespace

const char*
to_string(ServeStatus status)
{
    switch (status) {
      case ServeStatus::Ok: return "ok";
      case ServeStatus::DeadlineExceeded: return "deadline exceeded";
    }
    return "<bad-serve-status>";
}

ApproxService::ApproxService(ServiceConfig config)
    : config_(config),
      queue_(config.queue_capacity, [](const Job& job) {
          return job.deadline;
      }),
      watchdog_(config.watchdog)
{
    PARAPROX_CHECK(config_.queue_capacity > 0,
                   "queue capacity must be positive");
    PARAPROX_CHECK(config_.batching.max_batch > 0,
                   "batch size must be positive");
    const std::size_t count = resolve_workers(config_.num_workers);
    // The watchdog must be sweeping before the first worker can register
    // a flight.
    watchdog_.start(count);
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        workers_.emplace_back([this, i] { worker_loop(i); });
}

ApproxService::~ApproxService()
{
    stop();
}

void
ApproxService::register_family(
    const std::string& name, const runtime::VariantFamily& family,
    runtime::Metric metric, double toq_percent,
    const std::vector<std::uint64_t>& training_seeds)
{
    runtime::WarmTuner warm = runtime::warm_tuner(
        family, metric, toq_percent, training_seeds, kCheckInterval);
    if (warm.warm) {
        using Kind = runtime::VariantFamily::Kind;
        auto& restored = family.kind == Kind::Pipeline
                             ? metrics_.warm_pipelines
                         : family.kind == Kind::DataTier
                             ? metrics_.warm_data_tiers
                             : metrics_.warm_registrations;
        restored.fetch_add(1, std::memory_order_relaxed);
    }
    auto state = std::make_unique<KernelState>(
        name, std::move(warm.tuner), metric, toq_percent, config_.monitor,
        training_seeds);
    state->pipeline_stats = family.stages;

    state->tuner->set_quarantine(config_.quarantine);
    // A service created while load shedding is already in effect brings
    // newly registered kernels onto the current ladder level.
    {
        std::lock_guard<std::mutex> lock(pressure_mutex_);
        state->tuner->set_degradation_level(degradation_level_);
    }
    std::lock_guard<std::mutex> lock(kernels_mutex_);
    PARAPROX_CHECK(kernels_.find(name) == kernels_.end(),
                   "kernel `" + name + "` is already registered");
    // Each kernel owns a queue shard: admission, deadline math, and
    // worker batching are all per kernel from here on.
    state->shard = queue_.add_shard();
    kernels_.emplace(name, std::move(state));
}

ApproxService::KernelState*
ApproxService::find_kernel(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(kernels_mutex_);
    const auto it = kernels_.find(name);
    return it == kernels_.end() ? nullptr : it->second.get();
}

Ticket
ApproxService::submit(const std::string& kernel, std::uint64_t seed,
                      const SubmitOptions& options)
{
    Ticket ticket;
    if (stopped_.load(std::memory_order_acquire)) {
        metrics_.rejected_stopped.fetch_add(1, std::memory_order_relaxed);
        ticket.reject_reason = "service stopped";
        return ticket;
    }
    KernelState* state = find_kernel(kernel);
    if (state == nullptr) {
        metrics_.rejected_unknown.fetch_add(1, std::memory_order_relaxed);
        ticket.reject_reason = "unknown kernel `" + kernel + "`";
        return ticket;
    }
    if (options.deadline) {
        // Reject what cannot possibly be served in time: the budget is
        // gone, or the head-of-line request *in this kernel's shard* has
        // already waited longer than the budget this one has left (FIFO
        // within a shard: it waits at least as long).  Another kernel's
        // backlog is irrelevant — that is the point of sharding.
        // Shedding at admission is cheaper for the client than a
        // deadline_exceeded future seconds later.
        const auto now = std::chrono::steady_clock::now();
        if (now >= *options.deadline) {
            metrics_.rejected_deadline.fetch_add(1,
                                                 std::memory_order_relaxed);
            ticket.reject_reason = "deadline expired";
            return ticket;
        }
        if (const auto age = queue_.oldest_age(state->shard);
            age && *age > *options.deadline - now) {
            metrics_.rejected_deadline.fetch_add(1,
                                                 std::memory_order_relaxed);
            ticket.reject_reason = "deadline unmeetable behind backlog";
            return ticket;
        }
    }

    Job job{state, runtime::Input(seed), options.deadline,
            std::chrono::steady_clock::now(), {}};
    ticket.response = job.promise.get_future();

    // Count the admission before the push so a racing drain() cannot
    // observe completed > accepted, and raise the depth gauge before the
    // push so a worker's post-pop decrement cannot race it below zero;
    // undo both on rejection.
    {
        std::lock_guard<std::mutex> lock(flight_mutex_);
        ++flight_accepted_;
    }
    metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed);
    const PushResult pushed = queue_.try_push(state->shard, std::move(job));
    if (pushed != PushResult::Ok) {
        metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(flight_mutex_);
            --flight_accepted_;
        }
        flight_cv_.notify_all();
        if (pushed == PushResult::Full) {
            metrics_.rejected_full.fetch_add(1, std::memory_order_relaxed);
            ticket.reject_reason = to_string(pushed);
        } else {
            // Lost the race with stop(): the stopped_ pre-check passed
            // but the queue closed underneath us.  The client sees the
            // same reason as the pre-check path — "queue closed" leaked
            // an internal detail and made the two paths look like
            // different failures — while the dedicated counter keeps the
            // race observable.
            metrics_.rejected_closed_race.fetch_add(
                1, std::memory_order_relaxed);
            ticket.reject_reason = "service stopped";
        }
        ticket.response = {};
        return ticket;
    }

    metrics_.accepted.fetch_add(1, std::memory_order_relaxed);
    ticket.accepted = true;
    return ticket;
}

void
ApproxService::worker_loop(std::size_t worker_index)
{
    // Start each worker's shard scan at its own index so the pool fans
    // out across kernels instead of convoying on shard 0.
    std::size_t cursor = worker_index;
    ShardedQueue<Job>::PopOptions options;
    options.max_batch = config_.batching.max_batch;
    options.gather_window = config_.batching.gather_window;
    options.deadline_headroom = config_.batching.deadline_headroom;
    options.idle_timeout = config_.degradation.idle_tick;

    for (;;) {
        ShardedQueue<Job>::BatchPop batch =
            queue_.pop_batch(cursor, options);
        if (batch.outcome == ShardedQueue<Job>::PopOutcome::Closed)
            return;
        if (batch.outcome == ShardedQueue<Job>::PopOutcome::Idle) {
            // No traffic for a whole tick is the strongest relief signal
            // there is.  Feeding it into the ladder here is what lets a
            // service that degraded under a burst restore while idle —
            // pressure used to be evaluated only on dequeues, so a quiet
            // service stayed degraded until the next request arrived.
            update_pressure(0, 1);
            continue;
        }

        metrics_.queue_depth.fetch_sub(
            static_cast<std::int64_t>(batch.items.size()),
            std::memory_order_relaxed);
        // The shard's fill at the moment of the pop, weighted by how many
        // requests the pop drained: a batch of N is N requests' worth of
        // evidence, exactly as N singleton pops would have been.
        update_pressure(batch.items.size() + batch.remaining,
                        static_cast<int>(batch.items.size()));
        metrics_.batch.record(batch.items.size());

        // Chaos-testing site: stall this worker, as a slow variant or a
        // noisy neighbour would, to pressure deadlines and the ladder.
        // Consulted once per member — fault pacing and occurrence limits
        // must see every request whether or not it rode a batch.
        for (const Job& job : batch.items) {
            if (const double stall =
                    fault::latency_ms("serve.latency", job.kernel->name);
                stall > 0.0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(stall));
            }
        }

        serve_batch(worker_index, *batch.items.front().kernel,
                    batch.items);
    }
}

void
ApproxService::update_pressure(std::size_t depth, int weight)
{
    if (!config_.degradation.enabled || weight <= 0)
        return;
    const double fill = static_cast<double>(depth) /
                        static_cast<double>(config_.queue_capacity);
    int new_level = -1;
    {
        std::lock_guard<std::mutex> lock(pressure_mutex_);
        if (fill >= config_.degradation.high_watermark) {
            high_streak_ += weight;
            low_streak_ = 0;
        } else if (fill <= config_.degradation.low_watermark) {
            low_streak_ += weight;
            high_streak_ = 0;
        } else {
            high_streak_ = 0;
            low_streak_ = 0;
        }
        if (high_streak_ >= config_.degradation.sustain &&
            degradation_level_ < config_.degradation.max_level) {
            ++degradation_level_;
            high_streak_ = 0;
            new_level = degradation_level_;
            metrics_.degrade_steps.fetch_add(1, std::memory_order_relaxed);
        } else if (low_streak_ >= config_.degradation.sustain &&
                   degradation_level_ > 0) {
            --degradation_level_;
            low_streak_ = 0;
            new_level = degradation_level_;
            metrics_.restore_steps.fetch_add(1, std::memory_order_relaxed);
        }
        if (new_level >= 0) {
            metrics_.degradation_level.store(new_level,
                                             std::memory_order_relaxed);
        }
    }
    if (new_level >= 0) {
        std::lock_guard<std::mutex> lock(kernels_mutex_);
        for (const auto& [name, state] : kernels_)
            state->tuner->set_degradation_level(new_level);
    }
}

void
ApproxService::serve_batch(std::size_t worker, KernelState& state,
                           std::vector<Job>& jobs)
{
    // Scatter members that expired while queued: resolve their futures
    // with a reason instead of wasting launch capacity on answers nobody
    // reads.  The rest of the batch is unaffected.
    const auto now = std::chrono::steady_clock::now();
    std::vector<Job*> launched;
    launched.reserve(jobs.size());
    for (Job& job : jobs) {
        if (job.deadline && now >= *job.deadline) {
            metrics_.deadline_expired.fetch_add(1,
                                                std::memory_order_relaxed);
            Response response;
            response.status = ServeStatus::DeadlineExceeded;
            job.promise.set_value(std::move(response));
            finish_one();
            continue;
        }
        if (!serve_detour(state, job))
            launched.push_back(&job);
    }
    if (!launched.empty())
        launch_jobs(worker, state, launched);
}

bool
ApproxService::serve_detour(KernelState& state, Job& job)
{
    // The tuner is re-profiling (or a scale-out peer is, and this replica
    // is waiting to adopt its publish): keep serving with the always-safe
    // exact kernel rather than blocking (or dropping) the request.
    const bool exact_only =
        state.recalibrating.load(std::memory_order_acquire) ||
        state.awaiting_adoption.load(std::memory_order_acquire);

    // Half-open probing: when a quarantined variant's cooldown has
    // elapsed, ride a paced sample of requests to re-test it off the
    // client path.  The client always gets the exact output — a probe
    // never exposes a suspect variant to a caller — while the probe run
    // decides reinstatement.
    int probe_index = 0;
    if (!exact_only) {
        probe_index = state.tuner->probe_candidate();
        if (probe_index <= 0 || !state.monitor.admit_probe())
            return false;
    }

    Response response;
    try {
        response.run = state.tuner->run_exact(job.input);
        response.served_by = state.tuner->exact_label();
        if (exact_only) {
            metrics_.exact_while_recalibrating.fetch_add(
                1, std::memory_order_relaxed);
        } else {
            const runtime::VariantRun probe =
                state.tuner->run_probe(probe_index, job.input);
            const bool healthy =
                !probe.trapped &&
                runtime::quality_percent(state.metric, response.run.output,
                                         probe.output) >= state.toq;
            state.tuner->record_probe(probe_index, healthy);
        }
    } catch (...) {
        job.promise.set_exception(std::current_exception());
        finish_one();
        return true;
    }
    resolve_job(job, std::move(response));
    return true;
}

void
ApproxService::launch_jobs(std::size_t worker, KernelState& state,
                           const std::vector<Job*>& jobs)
{
    std::vector<runtime::Input> inputs;
    inputs.reserve(jobs.size());
    for (const Job* job : jobs)
        inputs.push_back(job->input);

    // One watchdog flight per launch, one token per member in input order
    // — the order launch_batch sees, which is what lets the sweep
    // scatter-cancel exactly the expired members.  The tokens are armed
    // around the tuner call only: the shadow and watchdog-fallback exact
    // runs below are the trusted tier and always run to completion.
    const bool watched = config_.watchdog.enabled;
    std::vector<std::shared_ptr<vm::CancelToken>> tokens;
    std::vector<const vm::CancelToken*> member_tokens;
    if (watched) {
        WatchdogFlight flight;
        flight.started = std::chrono::steady_clock::now();
        flight.ceiling = hang_ceiling(state);
        tokens.reserve(jobs.size());
        member_tokens.reserve(jobs.size());
        for (const Job* job : jobs) {
            auto token = std::make_shared<vm::CancelToken>();
            flight.members.push_back({token, job->deadline});
            member_tokens.push_back(token.get());
            tokens.push_back(std::move(token));
        }
        watchdog_.begin_flight(worker, std::move(flight));
    }

    const auto start = std::chrono::steady_clock::now();
    runtime::BatchServed batch;
    try {
        exec::BatchCancelScope scope(watched ? &member_tokens : nullptr);
        batch = state.tuner->serve_batch(inputs);
    } catch (...) {
        if (watched)
            watchdog_.end_flight(worker);
        const std::exception_ptr error = std::current_exception();
        for (Job* job : jobs) {
            job->promise.set_exception(error);
            finish_one();
        }
        return;
    }
    if (watched)
        watchdog_.end_flight(worker);
    const double launch_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double amortized =
        launch_wall / static_cast<double>(jobs.size());

    bool any_cancelled = false;
    bool hang_charged = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        runtime::ServedRun& served = batch.runs[i];
        if (jobs.size() > 1)
            metrics_.batch_latency.record(amortized);
        metrics_.launch_groups_completed.fetch_add(
            static_cast<std::uint64_t>(served.run.groups_completed),
            std::memory_order_relaxed);
        any_cancelled = any_cancelled || (served.run.cancelled && watched);
        // Each member resolves exactly once whatever its follow-up runs
        // do: an exception from them (a watchdog fallback's exact run)
        // resolves this member with it, and the batch's other members
        // and the worker carry on.
        Response response;
        try {
            response = served.run.cancelled && watched
                           ? finish_cancelled(state, jobs[i]->input, served,
                                              *tokens[i], hang_charged)
                           : finish_served(state, *jobs[i], served);
        } catch (...) {
            jobs[i]->promise.set_exception(std::current_exception());
            finish_one();
            continue;
        }
        resolve_job(*jobs[i], std::move(response));
    }
    // A cancelled launch's wall clock says nothing about a healthy one —
    // the deadline/ceiling capped it — so only clean launches feed the
    // hang-ceiling EWMA.
    if (!any_cancelled)
        observe_launch_wall(state, launch_wall);
}

Response
ApproxService::finish_served(KernelState& state, const Job& job,
                             runtime::ServedRun& served)
{
    Response response;
    response.run = std::move(served.run);
    response.served_by = std::move(served.label);
    response.degraded = served.degraded;
    response.trap_fallback = served.trap_fallback;
    if (served.trap_fallback)
        metrics_.trap_fallbacks.fetch_add(1, std::memory_order_relaxed);
    if (served.degraded)
        metrics_.degraded_serves.fetch_add(1, std::memory_order_relaxed);

    // Shadow only clean approximate runs, one admit() decision per
    // request: auditing exact against itself tells the monitor nothing,
    // a trap fallback already reported its failure, and a degraded serve
    // is *expected* to miss the TOQ — a deliberate load-shedding choice
    // must not read as drift or count against the variant's breaker.
    // The short-circuit also keeps admit() from burning shadow slots on
    // runs that cannot be audited.
    const bool shadow = served.index != 0 && !served.trap_fallback &&
                        !served.degraded &&
                        state.monitor.admit(job.input.seed());
    if (!shadow)
        return response;

    // The exact run reuses the request's input build.  An exact run that
    // throws or traps gives nothing to judge by: the audit is void (and
    // counted), the served output stands, and neither the breaker nor
    // the monitor hears of it.
    runtime::VariantRun exact;
    try {
        exact = state.tuner->run_exact(job.input);
    } catch (...) {
        exact.trapped = true;
    }
    if (exact.trapped) {
        metrics_.shadow_void.fetch_add(1, std::memory_order_relaxed);
        return response;
    }
    response.shadowed = true;
    response.shadow_quality = runtime::quality_percent(
        state.metric, exact.output, response.run.output);
    metrics_.shadow_runs.fetch_add(1, std::memory_order_relaxed);
    if (response.shadow_quality < state.toq) {
        metrics_.shadow_violations.fetch_add(1, std::memory_order_relaxed);
        // A quality failure counts against the variant's breaker just
        // like a trap: K sustained misses quarantine it even before the
        // monitor's slower drift trigger fires.
        state.tuner->record_failure(served.index);
        // The audit already produced the exact answer; the client gets
        // it instead of the output that failed.
        response.run = std::move(exact);
        response.served_by = state.tuner->exact_label();
    }
    if (state.monitor.record(response.shadow_quality))
        trigger_recalibration(state, {});
    return response;
}

Response
ApproxService::finish_cancelled(KernelState& state,
                                const runtime::Input& input,
                                const runtime::ServedRun& served,
                                const vm::CancelToken& cancel,
                                bool& hang_charged)
{
    Response response;
    if (cancel.reason() == vm::CancelReason::Watchdog) {
        // Hung launch: charge the variant's quarantine breaker like a
        // trap — once per launch, not once per batch member — and
        // re-serve exact outside any cancel scope, so the client still
        // gets an answer.  A variant that keeps spinning accumulates
        // breaker failures and gets quarantined, not re-served.
        metrics_.watchdog_cancels.fetch_add(1, std::memory_order_relaxed);
        if (!hang_charged && served.index > 0) {
            state.tuner->record_failure(served.index);
            hang_charged = true;
        }
        response.run = state.tuner->run_exact(input);
        response.served_by = state.tuner->exact_label();
        response.watchdog_fallback = true;
        metrics_.watchdog_fallbacks.fetch_add(1,
                                              std::memory_order_relaxed);
        return response;
    }
    // Deadline fired mid-launch: the launch stopped within one group
    // round and merged nothing; resolve DeadlineExceeded — the same
    // client view as expiring while queued, one group round later.
    metrics_.cancelled_launches.fetch_add(1, std::memory_order_relaxed);
    metrics_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
    response.status = ServeStatus::DeadlineExceeded;
    return response;
}

std::chrono::steady_clock::duration
ApproxService::hang_ceiling(const KernelState& state) const
{
    const double expected =
        state.expected_launch_seconds.load(std::memory_order_relaxed);
    const auto floor = config_.watchdog.hang_floor;
    if (expected <= 0.0)
        return floor;
    const auto scaled =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                expected * config_.watchdog.hang_multiplier));
    return scaled > floor ? scaled : floor;
}

void
ApproxService::observe_launch_wall(KernelState& state, double seconds)
{
    if (!(seconds > 0.0))
        return;
    // Racy read-modify-write on purpose: the EWMA is a heuristic input
    // to the hang ceiling, not an exact statistic.
    const double prev =
        state.expected_launch_seconds.load(std::memory_order_relaxed);
    const double next =
        prev <= 0.0 ? seconds : 0.8 * prev + 0.2 * seconds;
    state.expected_launch_seconds.store(next, std::memory_order_relaxed);
}

void
ApproxService::resolve_job(Job& job, Response response)
{
    if (response.status != ServeStatus::Ok) {
        // Deadline cancellation: the future resolves (exactly once, like
        // every job), but nothing was served — keep `served` honest,
        // mirroring the queued-expiry scatter path.
        job.promise.set_value(std::move(response));
        finish_one();
        return;
    }
    metrics_.latency.record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job.submitted_at)
            .count());
    metrics_.served.fetch_add(1, std::memory_order_relaxed);
    job.promise.set_value(std::move(response));
    finish_one();
}

void
ApproxService::recalibrate_kernel(const std::string& kernel,
                                  std::vector<std::uint64_t> seeds)
{
    KernelState* state = find_kernel(kernel);
    PARAPROX_CHECK(state != nullptr, "unknown kernel `" + kernel + "`");
    if (seeds.empty())
        seeds = state->training_seeds;
    trigger_recalibration(*state, std::move(seeds));
}

void
ApproxService::set_recalibration_gate(RecalibrationGate gate)
{
    std::lock_guard<std::mutex> lock(hooks_mutex_);
    recalibration_gate_ = std::move(gate);
}

void
ApproxService::set_calibration_publisher(CalibrationPublisher publisher)
{
    std::lock_guard<std::mutex> lock(hooks_mutex_);
    calibration_publisher_ = std::move(publisher);
}

bool
ApproxService::adopt_calibration(const std::string& kernel,
                                 const runtime::CalibrationState& calibration,
                                 const std::vector<std::string>& quarantined)
{
    KernelState* state = find_kernel(kernel);
    if (state == nullptr ||
        !state->tuner->restore_calibration(calibration)) {
        metrics_.adoption_rejects.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // Verdict labels that no longer exist locally (module drift) are
    // skipped by adopt_quarantine; the calibration itself was already
    // validated against the live variant list.
    for (const auto& label : quarantined)
        state->tuner->adopt_quarantine(label);
    state->monitor.on_recalibrated();
    state->awaiting_adoption.store(false, std::memory_order_release);
    metrics_.adopted_calibrations.fetch_add(1, std::memory_order_relaxed);
    return true;
}

bool
ApproxService::awaiting_adoption(const std::string& kernel) const
{
    const KernelState* state = find_kernel(kernel);
    return state != nullptr &&
           state->awaiting_adoption.load(std::memory_order_acquire);
}

void
ApproxService::trigger_recalibration(KernelState& state,
                                     std::vector<std::uint64_t> seeds)
{
    if (state.recalibrating.exchange(true, std::memory_order_acq_rel))
        return;  // One re-profiling pass at a time per kernel.

    // Fleet arbitration: with a gate installed (scale-out), only the
    // drift-lock holder burns CPU on the re-profiling sweep; everyone
    // else either waits for its publish (serving exact meanwhile) or —
    // when the publish already landed — adopted it inside the gate and
    // just clears the drift evidence.
    RecalibrationGate gate;
    {
        std::lock_guard<std::mutex> lock(hooks_mutex_);
        gate = recalibration_gate_;
    }
    if (gate) {
        RecalibrationDecision decision = RecalibrationDecision::Proceed;
        try {
            decision = gate(state.name);
        } catch (...) {
            // A broken plane must not stop local recovery.
        }
        if (decision != RecalibrationDecision::Proceed) {
            if (decision == RecalibrationDecision::AwaitAdoption)
                state.awaiting_adoption.store(true,
                                              std::memory_order_release);
            metrics_.suppressed_recalibrations.fetch_add(
                1, std::memory_order_relaxed);
            state.monitor.on_recalibrated();
            state.recalibrating.store(false, std::memory_order_release);
            return;
        }
    }

    // A takeover re-drive reaches here with the awaiting flag still set
    // from the lost lock race; this replica now owns the event, so the
    // flag lifts when its own recalibration completes, not on adoption.
    state.awaiting_adoption.store(false, std::memory_order_release);
    metrics_.recalibrations.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(flight_mutex_);
        ++pending_recalibrations_;
    }
    ThreadPool::global().submit([this, &state,
                                 seeds = std::move(seeds)]() mutable {
        // Re-profile on the inputs that actually drifted; fall back to
        // the registration seeds if the monitor saw too few.
        if (seeds.empty())
            seeds = state.monitor.recent_seeds();
        if (seeds.empty())
            seeds = state.training_seeds;
        std::optional<runtime::CalibrationState> calibration;
        std::vector<std::string> quarantined;
        try {
            state.tuner->recalibrate(seeds);
            calibration = state.tuner->calibration_state();
            quarantined = state.tuner->quarantined_labels();
        } catch (...) {
            // An exact-kernel trap during re-profiling leaves the
            // previous selection standing; serving continues either way.
        }
        // Share a won recalibration with the fleet before lifting the
        // exact detour, so peers can adopt the same state the moment
        // this replica resumes approximate serving; a failed one still
        // ends the drift event, so a peer can take it over.
        CalibrationPublisher publisher;
        {
            std::lock_guard<std::mutex> lock(hooks_mutex_);
            publisher = calibration_publisher_;
        }
        if (publisher) {
            try {
                publisher(state.name, calibration, quarantined);
            } catch (...) {
                // Publishing is best-effort; peers fall back to their
                // own recalibration.
            }
        }
        state.monitor.on_recalibrated();
        state.recalibrating.store(false, std::memory_order_release);
        // Notify under the lock: this task runs on the global pool, which
        // outlives the service, so a drain()ing destructor must not be
        // able to finish (and destroy the cv) mid-notify.
        std::lock_guard<std::mutex> lock(flight_mutex_);
        --pending_recalibrations_;
        flight_cv_.notify_all();
    });
}

void
ApproxService::finish_one()
{
    {
        std::lock_guard<std::mutex> lock(flight_mutex_);
        ++flight_completed_;
    }
    flight_cv_.notify_all();
}

void
ApproxService::drain()
{
    std::unique_lock<std::mutex> lock(flight_mutex_);
    flight_cv_.wait(lock, [this] {
        return flight_completed_ == flight_accepted_ &&
               pending_recalibrations_ == 0;
    });
}

void
ApproxService::stop()
{
    // stopped_ turns submit() away before the queue close makes it
    // definitive; the mutex serializes concurrent stop() calls so a
    // second caller waits out the first's joins instead of racing
    // joinable()/join() on the same threads.
    stopped_.store(true, std::memory_order_release);
    queue_.close();
    std::lock_guard<std::mutex> lock(stop_mutex_);
    for (auto& worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    // After the joins no flight can be registered; idempotent like the
    // rest of stop().
    watchdog_.stop();
    drain();
}

KernelSnapshot
ApproxService::snapshot_kernel(const KernelState& state) const
{
    KernelSnapshot out;
    out.kernel = state.name;
    out.queue_depth = queue_.shard_size(state.shard);
    out.selected = state.tuner->selected_label();
    out.recalibrating = state.recalibrating.load(std::memory_order_acquire);
    out.awaiting_adoption =
        state.awaiting_adoption.load(std::memory_order_acquire);
    out.degradation_level = state.tuner->degradation_level();
    out.tuner = state.tuner->stats_snapshot();
    out.monitor = state.monitor.snapshot();
    out.breakers = state.tuner->breaker_snapshot();
    if (state.pipeline_stats) {
        const auto& stats = *state.pipeline_stats;
        out.stages.reserve(stats.num_stages());
        for (std::size_t s = 0; s < stats.num_stages(); ++s)
            out.stages.push_back({stats.stage_names()[s], stats.traps(s)});
    }
    return out;
}

ServiceSnapshot
ApproxService::snapshot() const
{
    ServiceSnapshot out;
    out.metrics = metrics_.snapshot();
    std::lock_guard<std::mutex> lock(kernels_mutex_);
    out.kernels.reserve(kernels_.size());
    for (const auto& [name, state] : kernels_) {
        out.kernels.push_back(snapshot_kernel(*state));
        const runtime::TunerStats& tuner = out.kernels.back().tuner;
#define PARAPROX_SUM(type, name) out.metrics.name += tuner.name;
        PARAPROX_TUNER_TOTALS(PARAPROX_SUM)
#undef PARAPROX_SUM
    }
    return out;
}

KernelSnapshot
ApproxService::kernel_snapshot(const std::string& kernel) const
{
    const KernelState* state = find_kernel(kernel);
    PARAPROX_CHECK(state != nullptr,
                   "unknown kernel `" + kernel + "`");
    return snapshot_kernel(*state);
}

}  // namespace paraprox::serve
