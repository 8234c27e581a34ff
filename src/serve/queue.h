/// @file
/// Bounded MPMC queue with reject-on-full backpressure.
///
/// The serving subsystem never blocks a producer: when the queue is at
/// capacity, try_push fails immediately with a reason the caller can
/// surface to its client (shed load at the edge instead of letting an
/// unbounded backlog grow — the paper's runtime budget only holds if
/// admission is bounded).  Consumers block; close() lets them drain what
/// was admitted and then exit, which is what "stop without dropping
/// queued requests" means.
///
/// The queue is sharded per kernel, and its consumers pop whole
/// same-shard batches (with a deadline-bounded gather window) so one
/// launch can serve many coalesced requests.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace paraprox::serve {

/// Why a push was (or was not) admitted.
enum class PushResult {
    Ok,      ///< Enqueued.
    Full,    ///< At capacity; retry later or shed the request.
    Closed,  ///< close() was called; no further admissions.
};

inline const char*
to_string(PushResult result)
{
    switch (result) {
      case PushResult::Ok: return "ok";
      case PushResult::Full: return "queue full";
      case PushResult::Closed: return "queue closed";
    }
    return "<bad-push-result>";
}

/// Per-kernel sharded MPMC queue with batch pop.
///
/// Every kernel owns a shard (its own mutex, deque, and arrival CV), so
/// producers targeting different kernels never contend on one lock and a
/// hot kernel's backlog cannot convoy everyone else's.  Consumers scan
/// shards round-robin and pop a whole same-shard batch at once; when the
/// first pop undershoots max_batch, they hold the shard open for a gather
/// window — bounded by the tightest deadline among the batch members —
/// so closely spaced same-kernel requests coalesce into one launch.
///
/// Capacity is per shard: each kernel gets its own admission budget, and
/// oldest_age(shard) answers deadline-aware admission against the shard
/// the request would actually wait in, not a global backlog.
template <typename T>
class ShardedQueue {
  public:
    /// Extracts a batch member's absolute deadline (nullopt = none); used
    /// to bound the gather window.  May be empty when no caller attaches
    /// deadlines.
    using DeadlineOf = std::function<
        std::optional<std::chrono::steady_clock::time_point>(const T&)>;

    explicit ShardedQueue(std::size_t capacity_per_shard,
                          DeadlineOf deadline_of = {})
        : capacity_(capacity_per_shard),
          deadline_of_(std::move(deadline_of))
    {
    }

    ShardedQueue(const ShardedQueue&) = delete;
    ShardedQueue& operator=(const ShardedQueue&) = delete;

    /// How one pop_batch() resolved.
    enum class PopOutcome {
        Batch,   ///< items holds >= 1 same-shard entries.
        Idle,    ///< idle_timeout elapsed with nothing admitted.
        Closed,  ///< Closed and fully drained; the consumer should exit.
    };

    struct PopOptions {
        /// Most entries one pop may coalesce.  1 = no batching.
        std::size_t max_batch = 1;
        /// How long an undersized batch holds its shard open for late
        /// same-kernel arrivals.  Zero = take what is there and go.
        std::chrono::steady_clock::duration gather_window{};
        /// Safety margin subtracted from member deadlines when they bound
        /// the gather window.
        std::chrono::steady_clock::duration deadline_headroom{};
        /// How long an idle consumer waits before PopOutcome::Idle gives
        /// it a turn (services use the tick for pressure relief).
        std::chrono::steady_clock::duration idle_timeout =
            std::chrono::milliseconds(10);
    };

    struct BatchPop {
        PopOutcome outcome = PopOutcome::Idle;
        std::size_t shard = 0;         ///< Valid when outcome == Batch.
        std::vector<T> items;
        std::size_t remaining = 0;     ///< Shard depth right after the pop.
    };

    /// Create a new shard and return its index.  Thread-safe; existing
    /// shard indices stay valid forever.
    std::size_t add_shard()
    {
        std::lock_guard<std::mutex> lock(sync_mutex_);
        shards_.push_back(std::make_unique<Shard>());
        return shards_.size() - 1;
    }

    std::size_t num_shards() const
    {
        std::lock_guard<std::mutex> lock(sync_mutex_);
        return shards_.size();
    }

    /// Non-blocking admission into @p shard.  The pending count is raised
    /// before the shard sees the item (and lowered again on a full
    /// shard), so an observer can never catch the total below the number
    /// of items actually admitted — the same discipline the service uses
    /// for its queue-depth gauge.
    PushResult try_push(std::size_t shard, T item)
    {
        Shard* target = nullptr;
        {
            std::lock_guard<std::mutex> lock(sync_mutex_);
            if (closed_.load(std::memory_order_relaxed))
                return PushResult::Closed;
            target = shards_[shard].get();
            ++pending_;
        }
        {
            std::lock_guard<std::mutex> lock(target->mutex);
            if (target->items.size() >= capacity_) {
                std::lock_guard<std::mutex> undo(sync_mutex_);
                --pending_;
                return PushResult::Full;
            }
            target->items.push_back(
                {std::move(item), std::chrono::steady_clock::now()});
        }
        ready_.notify_one();
        target->arrival.notify_all();
        return PushResult::Ok;
    }

    /// Blocking consumer side: wait until something is admitted (or the
    /// queue closes, or idle_timeout passes), claim the first non-empty
    /// shard at/after @p cursor, and gather up to max_batch entries from
    /// it.  @p cursor advances past the claimed shard so a consumer
    /// rotates fairly instead of camping on shard 0.
    BatchPop pop_batch(std::size_t& cursor, const PopOptions& options)
    {
        BatchPop out;
        std::unique_lock<std::mutex> sync(sync_mutex_);
        for (;;) {
            if (pending_ == 0) {
                if (closed_.load(std::memory_order_relaxed)) {
                    out.outcome = PopOutcome::Closed;
                    return out;
                }
                const bool admitted = ready_.wait_for(
                    sync, options.idle_timeout, [this] {
                        return pending_ > 0 ||
                               closed_.load(std::memory_order_relaxed);
                    });
                if (!admitted) {
                    out.outcome = PopOutcome::Idle;
                    return out;
                }
                continue;
            }

            // Snapshot stable shard pointers, then scan without the sync
            // lock — shard mutexes are never nested inside it.
            std::vector<Shard*> shards;
            shards.reserve(shards_.size());
            for (const auto& shard : shards_)
                shards.push_back(shard.get());
            sync.unlock();

            for (std::size_t step = 0; step < shards.size(); ++step) {
                const std::size_t index =
                    (cursor + step) % shards.size();
                Shard& shard = *shards[index];
                std::unique_lock<std::mutex> lock(shard.mutex);
                if (shard.items.empty())
                    continue;
                gather_locked(shard, lock, options, out.items);
                out.remaining = shard.items.size();
                lock.unlock();

                out.outcome = PopOutcome::Batch;
                out.shard = index;
                cursor = index + 1;
                std::lock_guard<std::mutex> done(sync_mutex_);
                pending_ -= out.items.size();
                return out;
            }

            // pending_ was raised by a producer that has not landed its
            // item in a shard yet (or a full-shard undo is in flight);
            // the window is a few instructions, so wait it out briefly.
            sync.lock();
            if (pending_ > 0 &&
                !closed_.load(std::memory_order_relaxed)) {
                ready_.wait_for(sync, std::chrono::microseconds(100));
            }
        }
    }

    /// How long @p shard's head-of-line entry has been waiting, or
    /// nullopt when the shard is empty.  FIFO within a shard: a new
    /// admission waits at least this long.
    std::optional<std::chrono::steady_clock::duration>
    oldest_age(std::size_t shard) const
    {
        Shard* target = nullptr;
        {
            std::lock_guard<std::mutex> lock(sync_mutex_);
            target = shards_[shard].get();
        }
        std::lock_guard<std::mutex> lock(target->mutex);
        if (target->items.empty())
            return std::nullopt;
        return std::chrono::steady_clock::now() -
               target->items.front().at;
    }

    std::size_t shard_size(std::size_t shard) const
    {
        Shard* target = nullptr;
        {
            std::lock_guard<std::mutex> lock(sync_mutex_);
            target = shards_[shard].get();
        }
        std::lock_guard<std::mutex> lock(target->mutex);
        return target->items.size();
    }

    /// Entries admitted and not yet claimed by a pop, across all shards
    /// (a batch mid-gather still counts until its pop completes).
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(sync_mutex_);
        return pending_;
    }

    std::size_t capacity() const { return capacity_; }

    /// Refuse new admissions; queued entries remain poppable and
    /// consumers mid-gather cut their window short.
    void close()
    {
        std::vector<Shard*> shards;
        {
            std::lock_guard<std::mutex> lock(sync_mutex_);
            closed_.store(true, std::memory_order_relaxed);
            shards.reserve(shards_.size());
            for (const auto& shard : shards_)
                shards.push_back(shard.get());
        }
        ready_.notify_all();
        for (Shard* shard : shards) {
            // Take the lock empty so a gather waiter cannot sleep
            // through the flag flip, then wake it.
            { std::lock_guard<std::mutex> lock(shard->mutex); }
            shard->arrival.notify_all();
        }
    }

  private:
    struct Entry {
        T item;
        std::chrono::steady_clock::time_point at;
    };

    struct Shard {
        std::mutex mutex;
        std::condition_variable arrival;
        std::deque<Entry> items;
    };

    /// Claim up to max_batch entries from @p shard (mutex held via
    /// @p lock), holding it open for the gather window when the first
    /// sweep undershoots.  The window never extends past the tightest
    /// member deadline minus the headroom: a batch must launch while its
    /// most urgent member can still make it.
    void gather_locked(Shard& shard, std::unique_lock<std::mutex>& lock,
                       const PopOptions& options, std::vector<T>& items)
    {
        using clock = std::chrono::steady_clock;
        const std::size_t max_batch =
            options.max_batch == 0 ? 1 : options.max_batch;
        auto window_end = clock::time_point::max();
        bool window_open = options.gather_window.count() > 0;
        if (window_open)
            window_end = clock::now() + options.gather_window;

        const auto take = [&] {
            while (!shard.items.empty() && items.size() < max_batch) {
                if (deadline_of_) {
                    if (const auto deadline =
                            deadline_of_(shard.items.front().item)) {
                        const auto cutoff =
                            *deadline - options.deadline_headroom;
                        // A member whose cutoff has already passed
                        // closes the window outright: the batch must
                        // launch now.  Merely lowering window_end would
                        // hand wait_until a stamp in the past — a
                        // degenerate wait the loop then has to notice
                        // against a fresh clock read.
                        if (cutoff <= clock::now())
                            window_open = false;
                        else if (cutoff < window_end)
                            window_end = cutoff;
                    }
                }
                items.push_back(std::move(shard.items.front().item));
                shard.items.pop_front();
            }
        };

        take();
        while (window_open && items.size() < max_batch &&
               !closed_.load(std::memory_order_relaxed)) {
            const auto now = clock::now();
            if (now >= window_end)
                break;
            shard.arrival.wait_until(lock, window_end);
            take();
        }
    }

    const std::size_t capacity_;
    const DeadlineOf deadline_of_;

    /// Guards shards_ growth, pending_, and the closed flip.  Lock
    /// order: sync_mutex_ may be taken while holding a shard mutex (the
    /// full-shard undo), never the reverse — pop/close release it before
    /// touching shard mutexes.
    mutable std::mutex sync_mutex_;
    std::condition_variable ready_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::size_t pending_ = 0;
    /// Written under sync_mutex_; atomic so gather waiters (holding only
    /// a shard mutex) can read it without inverting the lock order.
    std::atomic<bool> closed_{false};
};

}  // namespace paraprox::serve
