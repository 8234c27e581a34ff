#include "support/socket.h"

#include <cerrno>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace paraprox {
namespace {

/// Fill a sockaddr_un for @p path; false when the path does not fit
/// (sun_path is ~107 bytes — callers use short temp-dir paths).
bool
make_address(const std::string& path, sockaddr_un* address)
{
    if (path.empty() || path.size() >= sizeof(address->sun_path))
        return false;
    std::memset(address, 0, sizeof(*address));
    address->sun_family = AF_UNIX;
    std::memcpy(address->sun_path, path.c_str(), path.size() + 1);
    return true;
}

}  // namespace

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_)
{
    other.fd_ = -1;
}

Socket&
Socket::operator=(Socket&& other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

Socket::~Socket()
{
    close();
}

bool
Socket::send_all(const void* data, std::size_t size)
{
    const char* cursor = static_cast<const char*>(data);
    while (size > 0) {
        const ssize_t sent = ::send(fd_, cursor, size, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (sent == 0)
            return false;
        cursor += sent;
        size -= static_cast<std::size_t>(sent);
    }
    return true;
}

bool
Socket::recv_all(void* data, std::size_t size)
{
    char* cursor = static_cast<char*>(data);
    while (size > 0) {
        const ssize_t got = ::recv(fd_, cursor, size, 0);
        if (got < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (got == 0)
            return false;  // Peer closed mid-message.
        cursor += got;
        size -= static_cast<std::size_t>(got);
    }
    return true;
}

void
Socket::shutdown_both()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
Socket::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Socket
connect_unix(const std::string& path)
{
    sockaddr_un address;
    if (!make_address(path, &address))
        return Socket();
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return Socket();
    for (;;) {
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)) == 0)
            return Socket(fd);
        if (errno != EINTR)
            break;
    }
    ::close(fd);
    return Socket();
}

bool
wait_for_endpoint(const std::string& path, std::chrono::milliseconds timeout)
{
    const auto give_up = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < give_up) {
        if (connect_unix(path).valid())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

Listener::~Listener()
{
    close();
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    for (int end : wake_pipe_) {
        if (end >= 0)
            ::close(end);
    }
}

bool
Listener::listen_unix(const std::string& path, int backlog)
{
    sockaddr_un address;
    if (fd_ >= 0 || !make_address(path, &address))
        return false;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return false;
    ::unlink(path.c_str());  // Stale endpoint from a crashed predecessor.
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) != 0 ||
        ::listen(fd, backlog) != 0) {
        ::close(fd);
        return false;
    }
    if (::pipe(wake_pipe_) != 0) {
        ::close(fd);
        return false;
    }
    fd_ = fd;
    path_ = path;
    closed_.store(false, std::memory_order_release);
    return true;
}

Socket
Listener::accept()
{
    while (!closed_.load(std::memory_order_acquire)) {
        pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return Socket();
        }
        if (fds[1].revents != 0)
            return Socket();  // close() signalled shutdown.
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0)
            return Socket(fd);
        if (errno != EINTR && errno != ECONNABORTED)
            return Socket();
    }
    return Socket();
}

void
Listener::close()
{
    if (fd_ < 0 || closed_.exchange(true, std::memory_order_acq_rel))
        return;
    // Refuse further connects (they fail ECONNREFUSED from here on)
    // before the path is unlinked, so no client can slip into the
    // backlog after the drain below.  The fds themselves stay open
    // until the destructor so a blocked accept() never touches a
    // recycled descriptor.
    ::shutdown(fd_, SHUT_RDWR);
    // Wake the accept loop.
    if (wake_pipe_[1] >= 0) {
        const char byte = 0;
        [[maybe_unused]] const ssize_t n =
            ::write(wake_pipe_[1], &byte, 1);
    }
    if (!path_.empty())
        ::unlink(path_.c_str());
    // Release every embryonic connection still parked in the backlog.
    // Their peers already connected successfully and are blocked in
    // recv; with the listening fd held open (see above) they would
    // otherwise never observe EOF.  Closing the drained fd resets the
    // peer.  Queued embryos still come out of accept() after the
    // shutdown, and the racing acceptor thread dequeuing one first is
    // fine — it lands on the normal stopping path.
    for (;;) {
        const int fd = ::accept4(fd_, nullptr, nullptr,
                                 SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (fd < 0)
            break;
        ::close(fd);
    }
}

}  // namespace paraprox
