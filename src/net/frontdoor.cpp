#include "net/frontdoor.h"

#include <chrono>
#include <limits>

namespace paraprox::net {

FrontDoor::FrontDoor(std::vector<ReplicaEndpoint> replicas,
                     FrontDoorOptions options)
    : options_(std::move(options))
{
    replicas_.reserve(replicas.size());
    for (auto& endpoint : replicas) {
        auto replica = std::make_unique<Replica>();
        replica->endpoint = std::move(endpoint);
        replicas_.push_back(std::move(replica));
    }
}

FrontDoor::~FrontDoor()
{
    stop();
}

bool
FrontDoor::start()
{
    if (started_.exchange(true, std::memory_order_acq_rel))
        return true;
    if (options_.socket_path.empty())
        return true;
    if (!listener_.listen_unix(options_.socket_path)) {
        started_.store(false, std::memory_order_release);
        return false;
    }
    acceptor_ = std::thread([this] { accept_loop(); });
    return true;
}

void
FrontDoor::stop()
{
    if (!started_.load(std::memory_order_acquire))
        return;
    stopping_.store(true, std::memory_order_release);
    listener_.close();
    {
        std::lock_guard<std::mutex> lock(clients_mutex_);
        for (const auto& client : clients_)
            client->shutdown_both();
    }
    if (acceptor_.joinable())
        acceptor_.join();
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(clients_mutex_);
        threads.swap(client_threads_);
    }
    for (auto& thread : threads) {
        if (thread.joinable())
            thread.join();
    }
    {
        std::lock_guard<std::mutex> lock(clients_mutex_);
        clients_.clear();
    }
    for (const auto& replica : replicas_) {
        std::lock_guard<std::mutex> lock(replica->pool_mutex);
        replica->pool.clear();
    }
    started_.store(false, std::memory_order_release);
    stopping_.store(false, std::memory_order_release);
}

Socket
FrontDoor::borrow(Replica& replica)
{
    {
        std::lock_guard<std::mutex> lock(replica.pool_mutex);
        if (!replica.pool.empty()) {
            Socket connection = std::move(replica.pool.back());
            replica.pool.pop_back();
            return connection;
        }
    }
    return connect_unix(replica.endpoint.socket_path);
}

void
FrontDoor::give_back(Replica& replica, Socket connection)
{
    std::lock_guard<std::mutex> lock(replica.pool_mutex);
    replica.pool.push_back(std::move(connection));
}

int
FrontDoor::pick(const std::vector<bool>& tried) const
{
    // Least-outstanding among live, untried replicas; ties rotate so a
    // fully idle fleet still spreads load round-robin.
    const std::size_t n = replicas_.size();
    const std::uint64_t start =
        round_robin_.fetch_add(1, std::memory_order_relaxed);
    int best = -1;
    int best_outstanding = std::numeric_limits<int>::max();
    for (std::size_t offset = 0; offset < n; ++offset) {
        const std::size_t index = (start + offset) % n;
        if (tried[index] ||
            !replicas_[index]->alive.load(std::memory_order_acquire))
            continue;
        const int outstanding =
            replicas_[index]->outstanding.load(std::memory_order_acquire);
        if (outstanding < best_outstanding) {
            best = static_cast<int>(index);
            best_outstanding = outstanding;
        }
    }
    return best;
}

SubmitReply
FrontDoor::route(SubmitRequest request)
{
    using clock = std::chrono::steady_clock;
    requests_.fetch_add(1, std::memory_order_relaxed);

    const bool has_deadline = request.deadline_us > 0;
    const clock::time_point deadline_at =
        has_deadline
            ? clock::now() + std::chrono::microseconds(request.deadline_us)
            : clock::time_point::max();

    std::vector<bool> tried(replicas_.size(), false);
    bool first_attempt = true;
    for (;;) {
        if (has_deadline) {
            const auto now = clock::now();
            if (now >= deadline_at) {
                // The budget died between attempts (a failed replica ate
                // it): a counted terminal verdict, not a silent drop.
                deadline_rejects_.fetch_add(1, std::memory_order_relaxed);
                SubmitReply reply;
                reply.status = WireStatus::DeadlineExceeded;
                reply.replica = "frontdoor";
                return reply;
            }
            request.deadline_us = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    deadline_at - now)
                    .count());
        }

        const int index = pick(tried);
        if (index < 0) {
            rejected_no_replica_.fetch_add(1, std::memory_order_relaxed);
            SubmitReply reply;
            reply.status = WireStatus::Rejected;
            reply.reject_reason = "no live replica";
            reply.replica = "frontdoor";
            return reply;
        }
        tried[index] = true;
        if (!first_attempt)
            requeues_.fetch_add(1, std::memory_order_relaxed);
        first_attempt = false;

        Replica& replica = *replicas_[index];
        replica.outstanding.fetch_add(1, std::memory_order_acq_rel);
        Socket connection = borrow(replica);
        const std::string context =
            "frontdoor->" + replica.endpoint.id;
        std::optional<Frame> frame;
        if (connection.valid() &&
            send_frame(connection, MsgType::SubmitRequest,
                       request.encode(), context))
            frame = recv_frame(connection);
        replica.outstanding.fetch_sub(1, std::memory_order_acq_rel);

        if (frame && frame->type == MsgType::SubmitReply) {
            if (auto reply = SubmitReply::decode(frame->payload)) {
                replica.routed.fetch_add(1, std::memory_order_relaxed);
                give_back(replica, std::move(connection));
                return *reply;
            }
        }
        // Dead or lying connection: declare the replica down and requeue
        // to the next live peer.  The borrowed socket is dropped, and
        // any pooled siblings die with the mark (they would fail too).
        replica.alive.store(false, std::memory_order_release);
        replica_failures_.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(replica.pool_mutex);
            replica.pool.clear();
        }
    }
}

std::optional<Frame>
FrontDoor::call(std::size_t replica_index, MsgType type,
                const std::vector<std::uint8_t>& payload)
{
    if (replica_index >= replicas_.size())
        return std::nullopt;
    Replica& replica = *replicas_[replica_index];
    Socket connection = borrow(replica);
    if (!connection.valid())
        return std::nullopt;
    const std::string context = "frontdoor->" + replica.endpoint.id;
    if (!send_frame(connection, type, payload, context))
        return std::nullopt;
    auto frame = recv_frame(connection);
    if (frame)
        give_back(replica, std::move(connection));
    return frame;
}

std::optional<ReplicaStats>
FrontDoor::replica_stats(std::size_t replica_index)
{
    const auto reply = call(replica_index, MsgType::StatsRequest, {});
    if (!reply || reply->type != MsgType::StatsReply)
        return std::nullopt;
    return ReplicaStats::decode(reply->payload);
}

void
FrontDoor::revive(std::size_t index)
{
    if (index >= replicas_.size())
        return;
    Replica& replica = *replicas_[index];
    // The slot was restarted: pooled connections belong to the dead
    // incarnation, and borrowing one would re-fail the slot on its first
    // routed request.  Drop them so the next route dials fresh.
    {
        std::lock_guard<std::mutex> lock(replica.pool_mutex);
        replica.pool.clear();
    }
    replica.alive.store(true, std::memory_order_release);
}

bool
FrontDoor::replica_alive(std::size_t index) const
{
    return index < replicas_.size() &&
           replicas_[index]->alive.load(std::memory_order_acquire);
}

FrontDoorStats
FrontDoor::stats() const
{
    FrontDoorStats out;
    out.requests = requests_.load(std::memory_order_relaxed);
    out.requeues = requeues_.load(std::memory_order_relaxed);
    out.replica_failures =
        replica_failures_.load(std::memory_order_relaxed);
    out.rejected_no_replica =
        rejected_no_replica_.load(std::memory_order_relaxed);
    out.deadline_rejects =
        deadline_rejects_.load(std::memory_order_relaxed);
    out.routed.reserve(replicas_.size());
    for (const auto& replica : replicas_)
        out.routed.push_back(
            replica->routed.load(std::memory_order_relaxed));
    return out;
}

void
FrontDoor::accept_loop()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        Socket connection = listener_.accept();
        if (!connection.valid())
            break;
        auto shared = std::make_shared<Socket>(std::move(connection));
        std::lock_guard<std::mutex> lock(clients_mutex_);
        if (stopping_.load(std::memory_order_acquire)) {
            shared->shutdown_both();
            break;
        }
        clients_.push_back(shared);
        client_threads_.emplace_back(
            [this, shared] { handle_client(shared); });
    }
}

void
FrontDoor::handle_client(const std::shared_ptr<Socket>& connection)
{
    while (!stopping_.load(std::memory_order_acquire)) {
        const auto frame = recv_frame(*connection);
        if (!frame)
            return;
        if (frame->type == MsgType::SubmitRequest) {
            const auto request = SubmitRequest::decode(frame->payload);
            if (!request)
                return;
            const SubmitReply reply = route(*request);
            if (!send_frame(*connection, MsgType::SubmitReply,
                            reply.encode(), "frontdoor->client"))
                return;
        } else {
            return;  // Clients may only submit.
        }
    }
}

}  // namespace paraprox::net
