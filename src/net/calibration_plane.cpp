#include "net/calibration_plane.h"

namespace paraprox::net {

using LockState = store::FleetLock::State;

CalibrationPlane::CalibrationPlane(
    serve::ApproxService& service,
    std::shared_ptr<store::ArtifactStore> store, PlaneConfig config)
    : service_(service), store_(std::move(store)),
      config_(std::move(config))
{
}

CalibrationPlane::~CalibrationPlane()
{
    stop();
}

void
CalibrationPlane::track(const std::string& kernel, store::StoreKey key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Entry entry;
    entry.key = std::move(key);
    tracked_[kernel] = std::move(entry);
}

void
CalibrationPlane::start()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (started_)
            return;
        started_ = true;
        stopping_ = false;
    }
    service_.set_recalibration_gate(
        [this](const std::string& kernel) { return gate(kernel); });
    service_.set_calibration_publisher(
        [this](const std::string& kernel,
               const std::optional<runtime::CalibrationState>& calibration,
               const std::vector<std::string>& quarantined) {
            finish(kernel, calibration, quarantined);
        });
    watcher_ = std::thread([this] { watch_loop(); });
}

void
CalibrationPlane::stop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (!started_)
            return;
        stopping_ = true;
    }
    stop_cv_.notify_all();
    if (watcher_.joinable())
        watcher_.join();
    // Unhook so a service outliving the plane cannot call back into a
    // dead object.  In-flight recalibrations still hold copies of the
    // old hooks; the service copies them per event, so this only stops
    // *new* events from reaching us — callers stop the service first.
    service_.set_recalibration_gate(nullptr);
    service_.set_calibration_publisher(nullptr);
    std::lock_guard<std::mutex> lock(stop_mutex_);
    started_ = false;
}

PlaneStats
CalibrationPlane::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

bool
CalibrationPlane::adopt_newer(const std::string& kernel, Entry& entry)
{
    if (store_->fleet_calibration_version(entry.key) <= entry.seen_version)
        return false;
    const auto artifact = store_->load_fleet_calibration(entry.key);
    if (!artifact)
        return false;  // Corrupt; the next poll reads it again.
    // The version is consumed even if adoption fails: a record that
    // fails restore validation (module drift) will not get better by
    // re-reading it every poll.
    entry.seen_version = artifact->version;
    if (!service_.adopt_calibration(kernel, artifact->calibration,
                                    artifact->quarantined))
        return false;
    entry.awaiting = false;
    return true;
}

serve::RecalibrationDecision
CalibrationPlane::gate(const std::string& kernel)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tracked_.find(kernel);
    if (it == tracked_.end())
        return serve::RecalibrationDecision::Proceed;
    Entry& entry = it->second;

    store::FleetLock fleet = store_->try_lock_fleet(entry.key);
    switch (fleet.state()) {
        case LockState::Contended:
            ++stats_.lease_losses;
            entry.awaiting = true;
            return serve::RecalibrationDecision::AwaitAdoption;
        case LockState::Unavailable:
            // A store that cannot be locked cannot arbitrate: recover
            // locally and publish nothing.
            entry.awaiting = false;
            return serve::RecalibrationDecision::Proceed;
        case LockState::Held:
            break;
    }
    // Under the lock no publish can land before our sweep; a version
    // past what we have seen means a peer already resolved this drift.
    if (adopt_newer(kernel, entry))
        return serve::RecalibrationDecision::AlreadyResolved;
    ++stats_.lease_wins;
    entry.lock = std::move(fleet);
    entry.awaiting = false;
    return serve::RecalibrationDecision::Proceed;
}

void
CalibrationPlane::finish(
    const std::string& kernel,
    const std::optional<runtime::CalibrationState>& calibration,
    const std::vector<std::string>& quarantined)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tracked_.find(kernel);
    if (it == tracked_.end() || !it->second.lock.held())
        return;  // Recalibrated without the lock: nothing to publish.
    Entry& entry = it->second;
    if (calibration) {
        store::FleetCalibrationArtifact artifact;
        artifact.calibration = *calibration;
        artifact.quarantined = quarantined;
        artifact.toq = entry.key.toq;
        artifact.metric = entry.key.metric;
        if (const std::uint64_t version = store_->publish_fleet_calibration(
                entry.lock, std::move(artifact))) {
            ++stats_.published_calibrations;
            entry.seen_version = version;
        }
    }
    entry.lock = {};  // The drift event is over, published or not.
}

void
CalibrationPlane::poll_now()
{
    for (const std::string& kernel : sweep()) {
        // Re-drive a drift whose lock holder ended without publishing:
        // the gate runs again and takes the lock or loses it to a peer.
        // Outside the plane lock — the gate re-enters this plane.
        service_.recalibrate_kernel(kernel);
    }
}

std::vector<std::string>
CalibrationPlane::sweep()
{
    std::vector<std::string> redrive;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.watch_polls;
    for (auto& [kernel, entry] : tracked_) {
        if (entry.lock.held())
            continue;  // Our own recalibration is in flight.
        // Probe before reading the version: a holder publishes before
        // it drops the lock, so a free lock with nothing new to adopt
        // means the holder ended without a publish.
        const bool orphaned =
            entry.awaiting &&
            store_->try_lock_fleet(entry.key).state() != LockState::Contended;
        if (!adopt_newer(kernel, entry) && orphaned) {
            entry.awaiting = false;
            ++stats_.takeovers;
            redrive.push_back(kernel);
        }
    }
    return redrive;
}

void
CalibrationPlane::watch_loop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(stop_mutex_);
            stop_cv_.wait_for(lock, config_.watch_interval,
                              [this] { return stopping_; });
            if (stopping_)
                return;
        }
        poll_now();
    }
}

}  // namespace paraprox::net
