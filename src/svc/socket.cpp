#include "svc/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "svc/wire.h"

namespace wrpt::svc {

socket_error errno_error(const std::string& what, int err) {
    return socket_error(what + ": " + std::strerror(err));
}

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
    throw errno_error(what, errno);
}

/// A sockaddr large enough for both families, plus its used length.
struct address {
    sockaddr_storage storage{};
    socklen_t length = 0;

    sockaddr* raw() { return reinterpret_cast<sockaddr*>(&storage); }
};

address to_address(const endpoint& ep) {
    address a;
    if (ep.kind == endpoint::transport::unix_domain) {
        sockaddr_un sun{};
        sun.sun_family = AF_UNIX;
        if (ep.path.empty())
            throw socket_error("socket: unix endpoint path is empty");
        if (ep.path.size() >= sizeof sun.sun_path)
            throw socket_error("socket: unix path '" + ep.path +
                               "' exceeds the sun_path limit (" +
                               std::to_string(sizeof sun.sun_path - 1) +
                               " bytes)");
        std::memcpy(sun.sun_path, ep.path.c_str(), ep.path.size() + 1);
        std::memcpy(&a.storage, &sun, sizeof sun);
        a.length = sizeof sun;
    } else {
        sockaddr_in sin{};
        sin.sin_family = AF_INET;
        sin.sin_port = htons(ep.port);
        // Loopback only: the daemon is a local service component.
        sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        std::memcpy(&a.storage, &sin, sizeof sin);
        a.length = sizeof sin;
    }
    return a;
}

int open_socket(const endpoint& ep) {
    const int domain =
        ep.kind == endpoint::transport::unix_domain ? AF_UNIX : AF_INET;
    const int fd = ::socket(domain, SOCK_STREAM, 0);
    if (fd < 0) fail_errno("socket: cannot create socket");
    return fd;
}

}  // namespace

// --- endpoint ---------------------------------------------------------------

endpoint endpoint::parse(const std::string& spec) {
    if (spec.rfind("unix:", 0) == 0) {
        endpoint ep = unix_at(spec.substr(5));
        if (ep.path.empty())
            throw socket_error("socket: empty unix path in '" + spec + "'");
        return ep;
    }
    std::string digits = spec;
    if (spec.rfind("tcp:", 0) == 0) digits = spec.substr(4);
    if (!digits.empty() &&
        digits.find_first_not_of("0123456789") == std::string::npos &&
        digits.size() <= 5) {
        const unsigned long port = std::stoul(digits);
        if (port <= 65535) return tcp_at(static_cast<std::uint16_t>(port));
    }
    throw socket_error("socket: bad endpoint '" + spec +
                       "' (want <port>, tcp:<port> or unix:<path>)");
}

endpoint endpoint::unix_at(std::string path) {
    endpoint ep;
    ep.kind = transport::unix_domain;
    ep.path = std::move(path);
    return ep;
}

endpoint endpoint::tcp_at(std::uint16_t port) {
    endpoint ep;
    ep.kind = transport::tcp;
    ep.port = port;
    return ep;
}

std::string endpoint::describe() const {
    return kind == transport::unix_domain ? "unix:" + path
                                          : "tcp:" + std::to_string(port);
}

// --- stream -----------------------------------------------------------------

stream::stream(stream&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

stream& stream::operator=(stream&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

stream::~stream() { close(); }

void stream::send_all(std::string_view data, int timeout_ms) {
    const bool bounded = timeout_ms >= 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(bounded ? timeout_ms : 0);
    while (!data.empty()) {
        if (bounded) {
            // Wait (bounded) for buffer space, so a peer that stopped
            // reading cannot park this thread in ::send forever.
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline)
                throw socket_error(
                    "socket: send timed out (peer not reading)");
            pollfd pfd{};
            pfd.fd = fd_;
            pfd.events = POLLOUT;
            const int remaining = static_cast<int>(
                std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
                    .count());
            const int ready = ::poll(&pfd, 1, remaining);
            if (ready < 0) {
                if (errno == EINTR) continue;
                fail_errno("socket: poll failed");
            }
            if (ready == 0)
                throw socket_error(
                    "socket: send timed out (peer not reading)");
        }
        // MSG_NOSIGNAL: a vanished peer must surface as socket_error in
        // this thread, not SIGPIPE for the whole process.
        const ssize_t n =
            ::send(fd_, data.data(), data.size(),
                   MSG_NOSIGNAL | (bounded ? MSG_DONTWAIT : 0));
        if (n < 0) {
            if (errno == EINTR) continue;
            if (bounded && (errno == EAGAIN || errno == EWOULDBLOCK))
                continue;  // lost the POLLOUT race; re-poll with deadline
            fail_errno("socket: send failed");
        }
        data.remove_prefix(static_cast<std::size_t>(n));
    }
}

std::size_t stream::recv_some(char* buf, std::size_t cap) {
    for (;;) {
        const ssize_t n = ::recv(fd_, buf, cap, 0);
        if (n >= 0) return static_cast<std::size_t>(n);
        if (errno == EINTR) continue;
        // A reset peer is an orderly end of conversation for a line
        // server: the client is gone either way.
        if (errno == ECONNRESET) return 0;
        fail_errno("socket: recv failed");
    }
}

namespace {

void set_fd_nonblocking(int fd, bool on) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) fail_errno("socket: cannot read fd flags");
    const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
    if (want != flags && ::fcntl(fd, F_SETFL, want) != 0)
        fail_errno("socket: cannot toggle O_NONBLOCK");
}

}  // namespace

void stream::set_nonblocking(bool on) { set_fd_nonblocking(fd_, on); }

stream::io_status stream::recv_nonblocking(char* buf, std::size_t cap,
                                           std::size_t& n) {
    n = 0;
    for (;;) {
        const ssize_t r = ::recv(fd_, buf, cap, 0);
        if (r > 0) {
            n = static_cast<std::size_t>(r);
            return io_status::ok;
        }
        if (r == 0) return io_status::closed;
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return io_status::would_block;
        // A reset peer ends the conversation like an orderly EOF does.
        if (errno == ECONNRESET) return io_status::closed;
        fail_errno("socket: recv failed");
    }
}

stream::io_status stream::send_nonblocking(std::string_view data,
                                           std::size_t& n) {
    n = 0;
    while (n < data.size()) {
        const ssize_t r = ::send(fd_, data.data() + n, data.size() - n,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (r >= 0) {
            n += static_cast<std::size_t>(r);
            continue;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return n > 0 ? io_status::ok : io_status::would_block;
        if (errno == EPIPE || errno == ECONNRESET) return io_status::closed;
        fail_errno("socket: send failed");
    }
    return io_status::ok;
}

stream::wait_result stream::wait_readable(int timeout_ms) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    for (;;) {
        const int n = ::poll(&pfd, 1, timeout_ms);
        if (n < 0) {
            if (errno == EINTR) continue;
            fail_errno("socket: poll failed");
        }
        if (n == 0) return wait_result::timed_out;
        // POLLHUP/POLLERR report ready: the next recv sees EOF/error.
        return wait_result::ready;
    }
}

void stream::shutdown_write() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void stream::shutdown_both() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void stream::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

// --- line_reader ------------------------------------------------------------

line_status line_reader::read_line(std::string& out, int timeout_ms) {
    // One deadline for the whole line: a client dripping a byte per poll
    // interval cannot renew its budget (the call blocks until a complete
    // line, EOF, the cap, or this deadline).
    const bool bounded = timeout_ms >= 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(bounded ? timeout_ms : 0);
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            // The cap applies even when the newline arrived in the same
            // chunk that blew the budget — an over-cap line is overflow,
            // never delivered.
            if (max_line_ != 0 && nl > max_line_) return line_status::overflow;
            out.assign(buffer_, 0, nl);
            if (!out.empty() && out.back() == '\r') out.pop_back();
            buffer_.erase(0, nl + 1);
            return line_status::ok;
        }
        if (saw_eof_) {
            // Deliver a final unterminated line once, then report EOF —
            // matching the stdin serve loop's std::getline behavior.
            if (buffer_.empty()) return line_status::eof;
            out = std::move(buffer_);
            buffer_.clear();
            return line_status::ok;
        }
        if (max_line_ != 0 && buffer_.size() > max_line_)
            return line_status::overflow;
        if (bounded) {
            const auto now = std::chrono::steady_clock::now();
            if (now >= deadline) return line_status::timed_out;
            const int remaining = static_cast<int>(
                std::chrono::ceil<std::chrono::milliseconds>(deadline - now)
                    .count());
            if (stream_->wait_readable(remaining) ==
                stream::wait_result::timed_out)
                return line_status::timed_out;
        }
        char chunk[4096];
        const std::size_t n = stream_->recv_some(chunk, sizeof chunk);
        if (n == 0)
            saw_eof_ = true;
        else
            buffer_.append(chunk, n);
    }
}

// --- listener ---------------------------------------------------------------

namespace {

/// Is anyone actually listening at the unix-domain `addr`? A non-blocking
/// connect distinguishes a live listener (connects, or is in progress /
/// backlogged) from an orphaned socket file whose listener died without
/// cleanup (ECONNREFUSED). Anything unverifiable reports "alive", because
/// the only caller uses "dead" as a license to unlink. A path that is not
/// S_ISSOCK (a regular file squatting there) is "alive" up front: Linux
/// answers ECONNREFUSED for those too, so the errno alone cannot clear a
/// non-socket for deletion.
bool unix_listener_alive(const std::string& path, address& addr) {
    struct stat st{};
    if (::stat(path.c_str(), &st) != 0 || !S_ISSOCK(st.st_mode)) return true;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return true;  // cannot probe: assume alive, never unlink
    bool alive = true;
    try {
        set_fd_nonblocking(fd, true);
        if (::connect(fd, addr.raw(), addr.length) != 0)
            alive = errno != ECONNREFUSED;
    } catch (const socket_error&) {
        // fcntl failed: leave `alive` true — unverified means untouchable.
    }
    ::close(fd);
    return alive;
}

}  // namespace

listener::listener(const endpoint& ep, int backlog) : endpoint_(ep) {
    fd_ = open_socket(ep);
    if (ep.kind == endpoint::transport::tcp) {
        const int on = 1;
        ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);
    }
    address addr = to_address(ep);
    if (::bind(fd_, addr.raw(), addr.length) != 0) {
        int err = errno;
        // A unix listener that died without cleanup leaves its socket
        // file behind, and every restart would fail with EADDRINUSE
        // forever. Probe before giving up: only a *verified-dead* path
        // (bound file, nobody accepting) is unlinked and rebound — a live
        // listener or an unverifiable path keeps the original error.
        if (err == EADDRINUSE && ep.kind == endpoint::transport::unix_domain &&
            !unix_listener_alive(ep.path, addr)) {
            ::unlink(ep.path.c_str());
            err = ::bind(fd_, addr.raw(), addr.length) == 0 ? 0 : errno;
        }
        if (err != 0) {
            close();  // unlink_on_close_ is still false: never unlink a
                      // path someone else owns
            throw errno_error("socket: cannot bind " + ep.describe(), err);
        }
    }
    unlink_on_close_ = ep.kind == endpoint::transport::unix_domain;
    if (::listen(fd_, backlog) != 0) {
        const int err = errno;
        close();
        throw errno_error("socket: cannot listen on " + ep.describe(), err);
    }
    if (ep.kind == endpoint::transport::tcp && ep.port == 0) {
        sockaddr_in sin{};
        socklen_t len = sizeof sin;
        if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sin), &len) != 0) {
            const int err = errno;
            close();
            throw errno_error("socket: cannot resolve ephemeral port", err);
        }
        endpoint_.port = ntohs(sin.sin_port);
    }
}

listener::~listener() { close(); }

void listener::set_nonblocking(bool on) { set_fd_nonblocking(fd_, on); }

listener::accept_status listener::accept_nonblocking(stream& out) {
    for (;;) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
            out = stream(fd);
            return accept_status::accepted;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return accept_status::would_block;
        // A connection reset while still in the backlog is the client's
        // failure — try the next one.
        if (errno == ECONNABORTED || errno == EPROTO) continue;
        // Out of descriptors: the one signal where retrying immediately
        // is a busy loop and exiting kills every live session. The
        // caller backs off and keeps serving; the peer waits in the
        // backlog until a descriptor frees up.
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM)
            return accept_status::exhausted;
        return accept_status::closed;
    }
}

void listener::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (unlink_on_close_) {
        ::unlink(endpoint_.path.c_str());
        unlink_on_close_ = false;
    }
}

// --- client -----------------------------------------------------------------

void client::connect(const endpoint& ep, int retry_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(retry_ms);
    for (;;) {
        stream s(open_socket(ep));
        address addr = to_address(ep);
        if (::connect(s.fd(), addr.raw(), addr.length) == 0) {
            stream_ = std::move(s);
            reader_ = line_reader(stream_);
            return;
        }
        const int err = errno;
        // The daemon may still be starting: the socket file does not
        // exist yet (ENOENT) or nobody listens yet (ECONNREFUSED).
        const bool transient = err == ENOENT || err == ECONNREFUSED;
        if (!transient || std::chrono::steady_clock::now() >= deadline)
            throw errno_error("socket: cannot connect to " + ep.describe(),
                              err);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
}

void client::close() {
    stream_.close();
    reader_ = line_reader(stream_);
}

void client::send_line(std::string_view line) {
    std::string framed(line);
    framed.push_back('\n');
    stream_.send_all(framed);
}

void client::send_raw(std::string_view bytes) { stream_.send_all(bytes); }

line_status client::recv_line(std::string& out, int timeout_ms) {
    return reader_.read_line(out, timeout_ms);
}

void client::send(const request& q) { send_line(encode(q)); }

bool client::recv(response& out, int timeout_ms) {
    std::string line;
    for (;;) {
        const line_status st = reader_.read_line(line, timeout_ms);
        if (st == line_status::eof) return false;
        if (st == line_status::timed_out)
            throw socket_error("socket: timed out waiting for a response");
        if (st == line_status::overflow)
            throw socket_error("socket: response line overflow");
        if (line.find_first_not_of(" \t") != std::string::npos) break;
    }
    out = decode_response(line);
    return true;
}

response client::roundtrip(const request& q) {
    send(q);
    response r;
    if (!recv(r))
        throw socket_error(
            "socket: server closed the connection before answering");
    return r;
}

}  // namespace wrpt::svc
