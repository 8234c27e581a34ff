/// @file
/// CalibrationPlane: fleet-wide drift arbitration over the artifact
/// store.
///
/// Every replica runs one plane next to its ApproxService.  When a
/// tracked kernel drifts, the plane's gate takes the key's drift lock
/// (store::FleetLock, a flock on a sidecar in the shared store) without
/// blocking:
///
///   - the holder reads the fleet version under the lock.  If a peer
///     already published past what this replica has seen, it adopts
///     that record and drops the lock; otherwise it recalibrates
///     locally, publishes the fresh calibration — with its quarantine
///     verdicts — as the next FleetCalibration version, and drops the
///     lock when the recalibration ends, published or not;
///   - losers serve exact and wait; their watch thread polls the record
///     version every few tens of milliseconds and installs the publish
///     through ApproxService::adopt_calibration().  One drift event
///     costs the fleet exactly one re-profiling sweep.
///
/// Failure containment: the lock ends exactly when its holder's
/// recalibration ends or its process dies (the kernel drops it), so
/// detecting a dead holder needs no expiry and no timeout.  A waiting
/// replica's poll that finds the lock free and no new version takes
/// the event over through the gate (counted as a takeover).  A store
/// that cannot be locked at all cannot arbitrate: the gate lets the
/// replica recalibrate locally and publishes nothing.
///
/// A replica that joins after a publish (a warm restart restores the
/// calibration it saved before the drift) adopts the fleet's current
/// record on its first watch poll, so it serves the same selection and
/// quarantine verdicts as its peers.  PARAPROX_PLANE_COUNTERS lists the
/// plane's counters; net::ReplicaStats carries them to the front door.

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/service.h"
#include "store/artifact_store.h"
#include "support/counters.h"

namespace paraprox::net {

struct PlaneConfig {
    /// Unused: nothing reads it since the drift lock replaced the
    /// owner-stamped lease.  perfbench still sets it; the benchmark
    /// change that migrates perfbench deletes it.
    std::string replica_id = "replica";
    /// Version-watch poll period.
    std::chrono::milliseconds watch_interval{20};
};

/// The plane's counters, one X(type, name) row each (see
/// support/counters.h).  The table generates PlaneStats and the plane
/// half of net::ReplicaStats.
#define PARAPROX_PLANE_COUNTERS(X)                                            \
    /* Gates that took the drift lock and recalibrated locally. */            \
    X(std::uint64_t, lease_wins)                                              \
    /* Gates that found a peer holding the drift lock. */                     \
    X(std::uint64_t, lease_losses)                                            \
    X(std::uint64_t, published_calibrations)                                  \
    /* Always zero: the drift lock spans the sweep and the publish, so no */  \
    /* sweep can finish behind a peer's publish.  perfbench still reads */    \
    /* it; the benchmark change that migrates perfbench deletes it. */        \
    X(std::uint64_t, redundant_recalibrations)                                \
    X(std::uint64_t, watch_polls)                                             \
    /* Drift events re-driven after the lock holder ended without a */        \
    /* publish (its sweep failed or its process died). */                     \
    X(std::uint64_t, takeovers)

struct PlaneStats {
    PARAPROX_PLANE_COUNTERS(PARAPROX_COUNTER_FIELD)
};

class CalibrationPlane {
  public:
    /// The plane wires itself into @p service as its recalibration gate
    /// and publisher on start().  @p store is the fleet-shared artifact
    /// store (every replica must point at the same directory).
    CalibrationPlane(serve::ApproxService& service,
                     std::shared_ptr<store::ArtifactStore> store,
                     PlaneConfig config = {});
    ~CalibrationPlane();  ///< stop()s if the caller has not.

    CalibrationPlane(const CalibrationPlane&) = delete;
    CalibrationPlane& operator=(const CalibrationPlane&) = delete;

    /// Arbitrate drift for @p kernel under @p key (the kernel's fleet
    /// calibration key; KernelSession::calibration_key() produces the
    /// right shape).  Untracked kernels recalibrate locally, ungated.
    void track(const std::string& kernel, store::StoreKey key);

    /// Install the service hooks and start the watch thread.
    void start();
    void stop();

    /// One watch sweep immediately, synchronously (tests and
    /// shutdown-ordering callers; the background thread does this on a
    /// timer).
    void poll_now();

    PlaneStats stats() const;

  private:
    struct Entry {
        store::StoreKey key;
        /// Latest fleet version this replica has adopted or published.
        /// Starts at 0, so a record published before track() is adopted
        /// on the first watch poll.
        std::uint64_t seen_version = 0;
        /// Held from a won gate until that recalibration ends.
        store::FleetLock lock;
        /// A peer held the lock at the gate; serving exact meanwhile.
        bool awaiting = false;
    };

    serve::RecalibrationDecision gate(const std::string& kernel);
    /// The service's publisher hook: publish a successful recalibration
    /// and drop the lock either way.
    void finish(const std::string& kernel,
                const std::optional<runtime::CalibrationState>& calibration,
                const std::vector<std::string>& quarantined);
    /// Adopt the fleet's record if its version moved past what @p entry
    /// has seen; true when adopted.  Caller holds mutex_.
    bool adopt_newer(const std::string& kernel, Entry& entry);
    void watch_loop();
    /// One sweep over tracked kernels; returns kernels whose drift must
    /// be re-driven (invoked by the caller outside the lock — the gate
    /// re-enters this plane).
    std::vector<std::string> sweep();

    serve::ApproxService& service_;
    const std::shared_ptr<store::ArtifactStore> store_;
    const PlaneConfig config_;

    mutable std::mutex mutex_;
    std::map<std::string, Entry> tracked_;
    PlaneStats stats_;

    std::thread watcher_;
    std::mutex stop_mutex_;
    std::condition_variable stop_cv_;
    bool stopping_ = false;
    bool started_ = false;
};

}  // namespace paraprox::net
