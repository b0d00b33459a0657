// Dependency-free POSIX stream transport under the serving layer — the
// byte-moving half of the socket daemon (svc/server.h is the
// session-per-connection half).
//
// The pieces compose bottom-up:
//
//   endpoint     parses and prints listen/connect specs: "unix:<path>"
//                for a unix-domain socket, "<port>" or "tcp:<port>" for
//                TCP on the loopback interface (the daemon is a local
//                service component, not an internet-facing one; put a
//                real front end ahead of it for remote traffic).
//   stream       a move-only connected-socket fd: send_all (SIGPIPE-free
//                via MSG_NOSIGNAL), recv_some, poll-based wait_readable
//                with a timeout, the reactor's non-blocking recv/send,
//                and half-close of the write side or both sides.
//   line_reader  buffered newline framing over a stream with a hard
//                max-line cap, so a hostile client streaming an endless
//                line costs bounded memory and gets a disconnect, never
//                a blown process. A final unterminated line before EOF
//                is delivered once (matching the stdin serve loop).
//   listener     bind/listen plus a non-blocking accept the reactor
//                polls. Owns the unix socket file and unlinks it on
//                close; resolves an ephemeral TCP port at bind time.
//   client       the tiny blocking client used by tests, the CI smoke
//                and `wrpt_cli request`: connect (with a bounded retry
//                window so a just-started daemon is not a race), send a
//                request, receive the matching response line.
//
// Everything reports failures as socket_error carrying the errno string,
// so callers (the CLI's distinct exit codes, the tests) can surface
// *why* a bind or connect failed.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "svc/request.h"
#include "util/error.h"

namespace wrpt::svc {

/// Thrown on transport failures; the message carries the errno string.
class socket_error : public error {
public:
    explicit socket_error(const std::string& what) : error(what) {}
};

/// Build a "<what>: <strerror(err)>" socket_error from a saved errno.
socket_error errno_error(const std::string& what, int err);

/// A parsed transport address. TCP endpoints live on the loopback
/// interface only; unix endpoints are filesystem paths (bounded by the
/// platform's sun_path limit, checked at bind/connect time).
struct endpoint {
    enum class transport : std::uint8_t { tcp, unix_domain };

    transport kind = transport::tcp;
    std::string path;         ///< unix_domain only
    std::uint16_t port = 0;   ///< tcp only (0 = ephemeral, resolved at bind)

    /// Parse "unix:<path>", "tcp:<port>" or a bare "<port>". Throws
    /// socket_error on anything else.
    static endpoint parse(const std::string& spec);

    static endpoint unix_at(std::string path);
    static endpoint tcp_at(std::uint16_t port);

    /// The canonical spec string ("unix:/run/wrpt.sock", "tcp:4070").
    std::string describe() const;
};

/// One connected stream socket, move-only; closes on destruction.
class stream {
public:
    stream() = default;
    explicit stream(int fd) : fd_(fd) {}
    stream(stream&& other) noexcept;
    stream& operator=(stream&& other) noexcept;
    ~stream();

    stream(const stream&) = delete;
    stream& operator=(const stream&) = delete;

    explicit operator bool() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /// Write all of `data`, looping over short writes. A peer that went
    /// away raises socket_error (never SIGPIPE). `timeout_ms` >= 0 bounds
    /// the total wait for the peer to drain its receive buffer — a
    /// non-reading client raises socket_error instead of blocking the
    /// writer forever.
    void send_all(std::string_view data, int timeout_ms = -1);

    /// Read up to `cap` bytes; 0 means orderly EOF. Throws on errors.
    std::size_t recv_some(char* buf, std::size_t cap);

    /// Outcome of a non-blocking I/O attempt (the reactor's vocabulary).
    ///   ok          — `n` bytes moved (possibly fewer than asked)
    ///   would_block — nothing available / no buffer space right now
    ///   closed      — the peer is gone (orderly EOF, reset, or broken
    ///                 pipe — the conversation is over either way)
    enum class io_status : std::uint8_t { ok, would_block, closed };

    /// Toggle O_NONBLOCK. The reactor runs every connection fd (and the
    /// listening fd) non-blocking; the blocking client/session paths
    /// never call this.
    void set_nonblocking(bool on);

    /// Non-blocking read of up to `cap` bytes into `buf`; `n` receives
    /// the count on ok (never 0 — a 0-byte read reports closed). Throws
    /// socket_error only on genuinely unexpected errnos.
    io_status recv_nonblocking(char* buf, std::size_t cap, std::size_t& n);

    /// Non-blocking partial write; `n` receives how much was accepted
    /// (ok may still be a short write — the caller keeps the tail and
    /// re-arms write interest). A vanished peer reports closed, never
    /// SIGPIPE.
    io_status send_nonblocking(std::string_view data, std::size_t& n);

    enum class wait_result : std::uint8_t { ready, timed_out };

    /// Poll for readability. `timeout_ms` < 0 waits forever; a hangup
    /// reports ready (the following recv_some returns EOF).
    wait_result wait_readable(int timeout_ms);

    /// Half-close the write side: the peer sees EOF after draining what
    /// was already sent; this end can still receive.
    void shutdown_write();
    /// Full close of both directions, fd stays owned until destruction.
    void shutdown_both();

    void close();

private:
    int fd_ = -1;
};

/// Line framing status for line_reader::read_line.
enum class line_status : std::uint8_t { ok, eof, timed_out, overflow };

/// Buffered newline framing over a stream with a max-line cap.
class line_reader {
public:
    /// `max_line` caps the bytes a single line may hold before the
    /// terminating newline arrives (0 = unbounded).
    explicit line_reader(stream& s, std::size_t max_line = 0)
        : stream_(&s), max_line_(max_line) {}

    /// Extract the next line (newline stripped, trailing '\r' dropped).
    ///   ok        — `out` holds a complete line
    ///   eof       — peer closed; any final unterminated line was already
    ///               delivered as ok on the previous call
    ///   timed_out — no *complete line* within `timeout_ms` (>= 0 only).
    ///               The timeout is a deadline for the whole line, not a
    ///               per-byte gap: a slow-drip client cannot renew it.
    ///   overflow  — the line exceeded max_line; the connection should be
    ///               dropped (framing is lost)
    line_status read_line(std::string& out, int timeout_ms = -1);

private:
    stream* stream_;
    std::size_t max_line_;
    std::string buffer_;
    bool saw_eof_ = false;
};

/// A bound, listening socket. Owns (and unlinks) the unix socket file.
class listener {
public:
    /// Bind and listen, throwing socket_error (with the errno string) on
    /// failure. For TCP port 0 the resolved ephemeral port is available
    /// via bound().port immediately after construction.
    explicit listener(const endpoint& ep, int backlog = 64);
    ~listener();

    listener(const listener&) = delete;
    listener& operator=(const listener&) = delete;

    const endpoint& bound() const { return endpoint_; }

    /// The listening fd, for callers that multiplex it themselves (the
    /// reactor registers it with a poller instead of blocking here).
    int fd() const { return fd_; }

    /// Make the listening socket itself non-blocking, so accept() on it
    /// never parks the caller (reactor mode).
    void set_nonblocking(bool on);

    /// Outcome of a non-blocking accept attempt.
    ///   accepted    — `out` holds the new connection
    ///   would_block — backlog empty right now
    ///   exhausted   — out of descriptors (EMFILE/ENFILE/ENOBUFS/ENOMEM):
    ///                 the caller must back off and retry later, KEEPING
    ///                 existing connections alive — the pending peer
    ///                 stays in the backlog meanwhile
    ///   closed      — the listener was closed or hit a fatal error
    enum class accept_status : std::uint8_t {
        accepted,
        would_block,
        exhausted,
        closed,
    };

    /// One non-blocking accept attempt (the fd must be non-blocking).
    /// Transient per-peer failures (ECONNABORTED/EPROTO) are retried
    /// internally; the statuses above are the only outcomes.
    accept_status accept_nonblocking(stream& out);

    void close();

private:
    int fd_ = -1;
    endpoint endpoint_;
    bool unlink_on_close_ = false;
};

/// Tiny blocking request/response client over one connection — what the
/// tests, the CI smoke and `wrpt_cli request` speak.
class client {
public:
    client() = default;
    /// Connect, retrying for up to `retry_ms` while the endpoint does not
    /// accept yet (daemon still starting). Throws socket_error once the
    /// window is exhausted.
    explicit client(const endpoint& ep, int retry_ms = 0) {
        connect(ep, retry_ms);
    }

    client(const client&) = delete;
    client& operator=(const client&) = delete;

    void connect(const endpoint& ep, int retry_ms = 0);
    bool connected() const { return static_cast<bool>(stream_); }
    void close();

    /// Raw line I/O (the CI smoke replays scripted session files).
    void send_line(std::string_view line);
    /// Unframed bytes — no newline appended; how the tests impersonate
    /// hostile/slow clients.
    void send_raw(std::string_view bytes);
    /// Half-close the write side (the daemon sees EOF) while responses
    /// can still be drained — the orderly "no more requests" signal.
    void shutdown_write() { stream_.shutdown_write(); }
    line_status recv_line(std::string& out, int timeout_ms = -1);

    /// Typed I/O: encode-and-send / receive-and-decode one response.
    void send(const request& q);
    /// False on orderly EOF (server drained). Throws wire_error on a
    /// malformed response line, socket_error on transport failure.
    bool recv(response& out, int timeout_ms = -1);

    /// send + recv; throws socket_error if the server closed instead of
    /// answering.
    response roundtrip(const request& q);

private:
    stream stream_;
    line_reader reader_{stream_};
};

}  // namespace wrpt::svc
