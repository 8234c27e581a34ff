/// @file
/// FrontDoor: least-outstanding routing across N replica endpoints.
///
/// Clients speak the same wire protocol to the front door that the front
/// door speaks to replicas; route() picks the live replica with the
/// fewest in-flight requests (ties broken round-robin), rewrites the
/// remaining deadline budget, and forwards over a pooled connection.  A
/// replica that fails mid-request — dead socket, dropped reply, killed
/// process — is marked dead and the request is requeued to the next live
/// peer while its deadline allows; when the budget is exhausted the
/// client gets a *counted* DeadlineExceeded, and when no live replica
/// remains, a counted rejection.  Zero silent losses: every admitted
/// request resolves with exactly one reply.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "support/socket.h"

namespace paraprox::net {

struct ReplicaEndpoint {
    std::string id;
    std::string socket_path;
};

struct FrontDoorOptions {
    /// Endpoint for remote clients; empty = in-process route() only.
    std::string socket_path;
};

struct FrontDoorStats {
    std::uint64_t requests = 0;
    /// Forward attempts that failed and moved to another replica.
    std::uint64_t requeues = 0;
    /// Replicas declared dead after an IO failure.
    std::uint64_t replica_failures = 0;
    /// Requests rejected because no live replica remained.
    std::uint64_t rejected_no_replica = 0;
    /// Requests whose deadline ran out between attempts (counted here
    /// at the front door, never silently dropped).
    std::uint64_t deadline_rejects = 0;
    /// Requests routed to each replica (index-aligned with endpoints).
    std::vector<std::uint64_t> routed;
};

class FrontDoor {
  public:
    explicit FrontDoor(std::vector<ReplicaEndpoint> replicas,
                       FrontDoorOptions options = {});
    ~FrontDoor();  ///< stop()s if the caller has not.

    FrontDoor(const FrontDoor&) = delete;
    FrontDoor& operator=(const FrontDoor&) = delete;

    /// Start the client listener (no-op without a socket_path).  False
    /// if the path cannot be bound.
    bool start();
    void stop();

    /// Route one request through the fleet.  Thread-safe; always
    /// returns a terminal reply (Ok / DeadlineExceeded / Rejected).
    SubmitReply route(SubmitRequest request);

    /// Send an arbitrary request frame to one specific replica and wait
    /// for its reply (stats scrapes, drift broadcasts, shutdown).
    /// nullopt on transport failure; does not mark the replica dead.
    std::optional<Frame> call(std::size_t replica_index, MsgType type,
                              const std::vector<std::uint8_t>& payload);

    /// Scrape one replica's service and plane counters (a StatsRequest
    /// through call()); nullopt on transport failure or a bad reply.
    std::optional<ReplicaStats> replica_stats(std::size_t replica_index);

    std::size_t num_replicas() const { return replicas_.size(); }
    bool replica_alive(std::size_t index) const;

    /// Mark a previously-failed replica routable again — the supervisor
    /// restarted its process and its health probe answers.  A premature
    /// revive costs one requeue on the next route, nothing worse.
    void revive(std::size_t index);
    FrontDoorStats stats() const;

  private:
    struct Replica {
        ReplicaEndpoint endpoint;
        std::atomic<int> outstanding{0};
        std::atomic<bool> alive{true};
        std::atomic<std::uint64_t> routed{0};
        std::mutex pool_mutex;
        std::vector<Socket> pool;  ///< Idle pooled connections.
    };

    /// Borrow an idle pooled connection or dial a fresh one.
    Socket borrow(Replica& replica);
    void give_back(Replica& replica, Socket connection);
    /// Live, untried replica with the fewest outstanding requests;
    /// -1 when none remains.
    int pick(const std::vector<bool>& tried) const;

    void accept_loop();
    void handle_client(const std::shared_ptr<Socket>& connection);

    std::vector<std::unique_ptr<Replica>> replicas_;
    const FrontDoorOptions options_;

    Listener listener_;
    std::thread acceptor_;
    std::mutex clients_mutex_;
    std::vector<std::shared_ptr<Socket>> clients_;
    std::vector<std::thread> client_threads_;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};

    mutable std::atomic<std::uint64_t> round_robin_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> requeues_{0};
    std::atomic<std::uint64_t> replica_failures_{0};
    std::atomic<std::uint64_t> rejected_no_replica_{0};
    std::atomic<std::uint64_t> deadline_rejects_{0};
};

}  // namespace paraprox::net
