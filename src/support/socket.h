/// @file
/// Minimal AF_UNIX stream-socket primitives for the scale-out plane.
///
/// Unix-domain sockets keep the front door / replica protocol inside the
/// filesystem namespace: no port allocation, no loopback configuration,
/// and tests can place endpoints in a per-test temp directory that is
/// torn down wholesale.  The wrappers are deliberately tiny — RAII over
/// a file descriptor plus whole-buffer send/recv loops — because the
/// wire layer above (`net::send_frame`/`net::recv_frame`) owns framing,
/// validation, and fault injection.
///
/// All operations report failure by return value; a peer disappearing
/// mid-conversation (the chaos "killed replica" case) surfaces as a
/// short read or a failed send, never a signal (sends use MSG_NOSIGNAL).

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>

namespace paraprox {

/// RAII wrapper over a connected stream-socket file descriptor.
/// Move-only; the destructor closes the descriptor.
class Socket {
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    Socket(Socket&& other) noexcept;
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;
    ~Socket();

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /// Write exactly @p size bytes; false on any error (including a
    /// closed peer — EPIPE is suppressed via MSG_NOSIGNAL).
    bool send_all(const void* data, std::size_t size);

    /// Read exactly @p size bytes; false on EOF or error.
    bool recv_all(void* data, std::size_t size);

    /// Half-close both directions, unblocking any thread inside
    /// send/recv on this descriptor.  The fd stays owned (and is still
    /// closed by the destructor) so a concurrent reader never touches a
    /// recycled descriptor.
    void shutdown_both();

    void close();

  private:
    int fd_ = -1;
};

/// Connect to the AF_UNIX endpoint at @p path.  Invalid Socket on
/// failure.
Socket connect_unix(const std::string& path);

/// Poll connect_unix(@p path) until it succeeds (a freshly spawned
/// server is listening) or @p timeout passes; true on success.
bool wait_for_endpoint(const std::string& path,
                       std::chrono::milliseconds timeout);

/// Listening AF_UNIX endpoint bound to a filesystem path.  `close()`
/// (or destruction) unlinks the path and unblocks a concurrent
/// `accept()`.
class Listener {
  public:
    Listener() = default;
    Listener(Listener&&) = delete;
    Listener& operator=(Listener&&) = delete;
    ~Listener();

    /// Bind + listen on @p path, replacing any stale socket file from a
    /// crashed predecessor.  False on failure (path too long for
    /// sockaddr_un, permissions, ...).
    bool listen_unix(const std::string& path, int backlog = 64);

    /// Block for the next connection.  Invalid Socket once the listener
    /// is closed (the shutdown path) or on a persistent error.
    Socket accept();

    void close();

    bool listening() const
    {
        return fd_ >= 0 && !closed_.load(std::memory_order_acquire);
    }
    const std::string& path() const { return path_; }

  private:
    int fd_ = -1;
    int wake_pipe_[2] = {-1, -1};
    std::atomic<bool> closed_{false};
    std::string path_;
};

}  // namespace paraprox
