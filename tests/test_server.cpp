// Tests for the socket transport (svc/socket.h) and the
// concurrent-connection daemon core (svc/server.h): endpoint parsing,
// round trips over unix and TCP streams, the shared-service contract
// (one result cache and engine-pool set behind every connection), the
// drain protocol, hostile/slow-client containment, and the two
// acceptance properties of this layer — K concurrent clients get
// responses bit-identical (modulo revision/elapsed normalization) to a
// sequential replay, and every job is accounted as exactly one cache hit
// or miss.
//
// The concurrency suites here run under the TSan CI build: they are the
// first place two requests truly race on the service cache and the
// engine-pool LRU.

#include "svc/server.h"

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/comparator.h"
#include "gen/random_circuit.h"
#include "io/bench_io.h"
#include "svc/poller.h"
#include "svc/service.h"
#include "svc/socket.h"
#include "svc/wire.h"

namespace wrpt {
namespace {

using namespace wrpt::svc;

// --- fixtures ---------------------------------------------------------------

/// A fresh, collision-free unix socket path per test.
endpoint unique_unix_endpoint() {
    static std::atomic<unsigned> counter{0};
    const auto dir = std::filesystem::temp_directory_path();
    return endpoint::unix_at(
        (dir / ("wrpt_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter.fetch_add(1)) + ".sock"))
            .string());
}

netlist small_circuit(std::uint64_t seed) {
    random_circuit_spec spec;
    spec.inputs = 10;
    spec.gates = 90;
    spec.seed = seed;
    return make_random_circuit(spec);
}

/// Load an in-memory netlist through the wire (inline .bench text).
request load_request(const netlist& nl, std::uint64_t id) {
    request q;
    q.id = id;
    load_circuit_request p;
    p.bench = write_bench_string(nl);
    p.name = nl.name();
    q.payload = std::move(p);
    return q;
}

request job_line(std::uint64_t id, job_request j) {
    request q;
    q.id = id;
    std::visit([&](auto&& p) { q.payload = std::move(p); }, std::move(j));
    return q;
}

/// Normalize the legitimately volatile response fields: revision stamps
/// are process-unique and elapsed_ms is wall time; `drop_cached` also
/// clears the cached flag, which depends on request interleaving when
/// clients race on one cache.
void scrub(response& r, bool drop_cached) {
    std::visit(
        [&](auto& p) {
            using T = std::decay_t<decltype(p)>;
            if constexpr (std::is_same_v<T, load_circuit_response>) {
                p.revision = 0;
            } else if constexpr (std::is_same_v<T, test_length_response> ||
                                 std::is_same_v<T, optimize_response> ||
                                 std::is_same_v<T, fault_sim_response>) {
                p.revision = 0;
                p.elapsed_ms = 0.0;
                if (drop_cached) p.cached = false;
            } else if constexpr (std::is_same_v<T, matrix_response>) {
                for (response& e : p.results) scrub(e, drop_cached);
            } else if constexpr (std::is_same_v<T, stats_response>) {
                for (pool_stats_payload& ps : p.pools) ps.revision = 0;
            }
        },
        r.payload);
}

std::string normalized(const std::string& line, bool drop_cached = false) {
    response r = decode_response(line);
    scrub(r, drop_cached);
    return encode(r);
}

// --- endpoint parsing -------------------------------------------------------

TEST(socket_endpoint, parses_ports_and_unix_paths) {
    const endpoint tcp = endpoint::parse("4070");
    EXPECT_EQ(tcp.kind, endpoint::transport::tcp);
    EXPECT_EQ(tcp.port, 4070);
    EXPECT_EQ(tcp.describe(), "tcp:4070");
    EXPECT_EQ(endpoint::parse("tcp:0").port, 0);

    const endpoint ux = endpoint::parse("unix:/run/wrpt.sock");
    EXPECT_EQ(ux.kind, endpoint::transport::unix_domain);
    EXPECT_EQ(ux.path, "/run/wrpt.sock");
    EXPECT_EQ(ux.describe(), "unix:/run/wrpt.sock");

    EXPECT_THROW(endpoint::parse(""), socket_error);
    EXPECT_THROW(endpoint::parse("unix:"), socket_error);
    EXPECT_THROW(endpoint::parse("70000"), socket_error);
    EXPECT_THROW(endpoint::parse("host:4070"), socket_error);
    EXPECT_THROW(endpoint::parse("-1"), socket_error);
}

TEST(socket_endpoint, bind_failures_carry_the_errno_text) {
    try {
        listener bad(endpoint::unix_at("/nonexistent-wrpt-dir/x.sock"));
        FAIL() << "bind into a missing directory must throw";
    } catch (const socket_error& e) {
        EXPECT_NE(std::string(e.what()).find("cannot bind"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("No such file or directory"),
                  std::string::npos)
            << e.what();
    }
    // A path bound twice: the second listener reports address-in-use.
    const endpoint ep = unique_unix_endpoint();
    listener first(ep);
    try {
        listener second(ep);
        FAIL() << "double bind must throw";
    } catch (const socket_error& e) {
        EXPECT_NE(std::string(e.what()).find("in use"), std::string::npos)
            << e.what();
    }
}

TEST(socket_endpoint, stale_unix_socket_files_are_reclaimed) {
    // A daemon killed without cleanup leaves its socket file behind;
    // rebinding the same path must succeed once a probe verifies no
    // listener is alive behind it (connect -> ECONNREFUSED), instead of
    // failing EADDRINUSE forever.
    const endpoint ep = unique_unix_endpoint();
    {
        // Fabricate the stale file with raw syscalls: bind creates the
        // filesystem entry, closing the fd without unlink leaves it
        // orphaned — exactly the SIGKILL aftermath.
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_un sa{};
        sa.sun_family = AF_UNIX;
        ASSERT_LT(ep.path.size(), sizeof(sa.sun_path));
        std::memcpy(sa.sun_path, ep.path.c_str(), ep.path.size() + 1);
        ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&sa),
                         sizeof(sa)),
                  0);
        ASSERT_EQ(::listen(fd, 1), 0);
        ASSERT_EQ(::close(fd), 0);
    }
    ASSERT_TRUE(std::filesystem::exists(ep.path)) << "stale file expected";

    // The new daemon binds the same path and serves normally.
    service svc;
    server srv(svc, ep);
    client c(srv.where());
    request stats;
    stats.id = 1;
    stats.payload = stats_request{};
    EXPECT_TRUE(c.roundtrip(stats).ok);
    srv.stop();
    srv.wait();

    // A REGULAR file on the path is not a dead listener: the probe sees
    // ENOTSOCK, nothing is unlinked, and the bind failure surfaces.
    const endpoint file_ep = unique_unix_endpoint();
    {
        std::ofstream out(file_ep.path);
        out << "precious data, not a socket\n";
    }
    try {
        listener l(file_ep);
        FAIL() << "binding over a regular file must throw";
    } catch (const socket_error& e) {
        EXPECT_NE(std::string(e.what()).find("cannot bind"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(std::filesystem::exists(file_ep.path))
        << "the probe must never unlink a non-socket";
    std::filesystem::remove(file_ep.path);
}

// --- poller backend selection -----------------------------------------------

TEST(poller, force_poll_selects_the_portable_backend) {
    const bool saved = poller::poll_forced();

    poller::set_force_poll(true);
    EXPECT_TRUE(poller::poll_forced());
    {
        poller p;
        EXPECT_STREQ(p.backend_name(), "poll");
    }

    // Existing instances keep their backend; only new ones re-choose.
    poller::set_force_poll(saved);
    poller fresh;
#if defined(WRPT_POLLER_HAS_EPOLL)
    EXPECT_STREQ(fresh.backend_name(), saved ? "poll" : "epoll");
#else
    EXPECT_STREQ(fresh.backend_name(), "poll");
#endif
}

TEST(poller, round_trip_under_forced_poll_backend) {
    // The reactor must behave identically on the portable backend — this
    // is the in-process version of the CI leg that runs the whole suite
    // under WRPT_FORCE_POLL=1.
    const bool saved = poller::poll_forced();
    poller::set_force_poll(true);

    service svc;
    server srv(svc, unique_unix_endpoint());
    client c(srv.where());
    const netlist nl = small_circuit(17);
    ASSERT_TRUE(c.roundtrip(load_request(nl, 1)).ok);
    test_length_request tl;
    tl.circuit = 0;
    const response first = c.roundtrip(job_line(2, tl));
    ASSERT_TRUE(first.ok);
    EXPECT_TRUE(std::get<test_length_response>(first.payload)
                    .length.feasible);
    const response again = c.roundtrip(job_line(3, tl));
    EXPECT_TRUE(std::get<test_length_response>(again.payload).cached);
    srv.stop();
    srv.wait();

    poller::set_force_poll(saved);
}

// --- round trips ------------------------------------------------------------

TEST(server, round_trip_over_unix_socket) {
    service svc;
    server srv(svc, unique_unix_endpoint());
    client c(srv.where());

    const netlist nl = small_circuit(11);
    const response loaded = c.roundtrip(load_request(nl, 1));
    ASSERT_TRUE(loaded.ok);
    const auto& lp = std::get<load_circuit_response>(loaded.payload);
    EXPECT_EQ(lp.circuit, 0u);
    EXPECT_EQ(lp.inputs, nl.input_count());

    test_length_request tl;
    tl.circuit = 0;
    const response first = c.roundtrip(job_line(2, tl));
    ASSERT_TRUE(first.ok);
    const auto& p1 = std::get<test_length_response>(first.payload);
    EXPECT_FALSE(p1.cached);
    EXPECT_TRUE(p1.length.feasible);

    // Same query again: answered from the shared result cache.
    const response second = c.roundtrip(job_line(3, tl));
    const auto& p2 = std::get<test_length_response>(second.payload);
    EXPECT_TRUE(p2.cached);
    EXPECT_EQ(p2.length.test_length, p1.length.test_length);

    // Bad handles come back as envelopes with the id echoed, and the
    // connection survives them.
    test_length_request bad;
    bad.circuit = 99;
    const response err = c.roundtrip(job_line(4, bad));
    EXPECT_FALSE(err.ok);
    EXPECT_EQ(err.id, 4u);

    request stats;
    stats.id = 5;
    stats.payload = stats_request{};
    const response st = c.roundtrip(stats);
    ASSERT_TRUE(st.ok);
    EXPECT_EQ(std::get<stats_response>(st.payload).circuits, 1u);

    request down;
    down.id = 6;
    down.payload = shutdown_request{};
    EXPECT_TRUE(c.roundtrip(down).ok);
    srv.wait();
    EXPECT_EQ(srv.stats().requests, 6u);
}

TEST(server, round_trip_over_tcp_with_ephemeral_port) {
    service svc;
    server srv(svc, endpoint::tcp_at(0));
    ASSERT_GT(srv.where().port, 0) << "ephemeral port must be resolved";
    client c(srv.where());
    const response loaded = c.roundtrip(load_request(small_circuit(12), 1));
    ASSERT_TRUE(loaded.ok);
    fault_sim_request fs;
    fs.circuit = 0;
    fs.patterns = 256;
    const response sim = c.roundtrip(job_line(2, fs));
    ASSERT_TRUE(sim.ok);
    EXPECT_GT(std::get<fault_sim_response>(sim.payload).detected, 0u);
}

TEST(server, connections_share_one_service) {
    // The tentpole contract: sessions are per-connection, the service is
    // not — circuits loaded on one connection serve jobs on another, and
    // the second connection's identical query hits the first's cache
    // entry.
    service svc;
    server srv(svc, unique_unix_endpoint());

    client a(srv.where());
    ASSERT_TRUE(a.roundtrip(load_request(small_circuit(13), 1)).ok);
    optimize_request op;
    op.circuit = 0;
    op.options.max_sweeps = 2;
    const response first = a.roundtrip(job_line(2, op));
    ASSERT_TRUE(first.ok);

    client b(srv.where());
    const response again = b.roundtrip(job_line(7, op));
    ASSERT_TRUE(again.ok);
    const auto& pb = std::get<optimize_response>(again.payload);
    EXPECT_TRUE(pb.cached);
    EXPECT_EQ(pb.weights,
              std::get<optimize_response>(first.payload).weights);
    EXPECT_GE(svc.cache_stats().hits, 1u);
}

// --- hostile and slow clients ----------------------------------------------

TEST(server, oversize_lines_get_an_envelope_then_a_disconnect) {
    service svc;
    server::options opt;
    opt.max_line_bytes = 1024;
    server srv(svc, unique_unix_endpoint(), opt);

    client c(srv.where());
    c.send_line(std::string(8192, 'x'));
    response r;
    ASSERT_TRUE(c.recv(r));
    EXPECT_FALSE(r.ok);
    EXPECT_NE(std::get<error_response>(r.payload).message.find("exceeds"),
              std::string::npos);
    // Framing is gone: the server hangs up after the envelope.
    EXPECT_FALSE(c.recv(r));

    // The cap also bites when the whole over-cap line (newline included)
    // lands in one receive chunk: never delivered as a request.
    client c2(srv.where());
    c2.send_line(std::string(2000, 'y'));
    ASSERT_TRUE(c2.recv(r));
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(c2.recv(r));

    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().overflows, 2u);
}

TEST(server, malformed_lines_get_envelopes_and_the_session_continues) {
    service svc;
    server srv(svc, unique_unix_endpoint());
    client c(srv.where());

    c.send_line("{\"req\":\"nonsense\",\"id\":41}");
    response r;
    ASSERT_TRUE(c.recv(r));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.id, 41u);  // addressed via extract_id

    c.send_line("this is not json, \"id\":42 included");
    ASSERT_TRUE(c.recv(r));
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.id, 42u);

    // The same connection still answers real requests afterwards.
    request stats;
    stats.id = 43;
    stats.payload = stats_request{};
    EXPECT_TRUE(c.roundtrip(stats).ok);
    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().protocol_errors, 2u);
}

TEST(server, idle_connections_are_dropped_after_the_timeout) {
    service svc;
    server::options opt;
    opt.idle_timeout_ms = 50;
    server srv(svc, unique_unix_endpoint(), opt);

    client c(srv.where());
    response r;
    // Never send anything: the server must hang up on us.
    EXPECT_FALSE(c.recv(r, /*timeout_ms=*/5000));
    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().timeouts, 1u);
}

TEST(server, slow_drip_bytes_cannot_renew_the_idle_timeout) {
    // The timeout is one deadline per complete line — a client dripping
    // partial-line bytes faster than the timeout must still be dropped.
    service svc;
    server::options opt;
    opt.idle_timeout_ms = 80;
    server srv(svc, unique_unix_endpoint(), opt);

    client c(srv.where());
    line_status st = line_status::timed_out;
    std::string out;
    // Drip a byte every ~25 ms; with a per-byte reset this would stay
    // alive for the whole loop, with a per-line deadline the server
    // hangs up after ~80 ms.
    for (int i = 0; i < 100 && st == line_status::timed_out; ++i) {
        try {
            c.send_raw("{");
        } catch (const socket_error&) {
            // Already disconnected; drain the pending EOF below.
        }
        st = c.recv_line(out, /*timeout_ms=*/25);
    }
    EXPECT_EQ(st, line_status::eof);
    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().timeouts, 1u);
}

TEST(server, max_connections_refuses_the_excess) {
    service svc;
    server::options opt;
    opt.max_connections = 1;
    server srv(svc, unique_unix_endpoint(), opt);

    client keeper(srv.where());
    request stats;
    stats.id = 1;
    stats.payload = stats_request{};
    ASSERT_TRUE(keeper.roundtrip(stats).ok);  // session is registered

    client excess(srv.where());  // accepted, then immediately closed
    response r;
    // The refusal may land before or after our request leaves; either
    // way the observable outcome is EOF, never an answer.
    try {
        excess.send(stats);
    } catch (const socket_error&) {
        // Refused fast enough that the send already hit a closed peer.
    }
    EXPECT_FALSE(excess.recv(r, /*timeout_ms=*/5000));

    srv.stop();
    srv.wait();
    EXPECT_GE(srv.stats().refused, 1u);
}

// --- drain protocol ---------------------------------------------------------

TEST(server, shutdown_drains_answers_in_flight_and_refuses_new) {
    service svc;
    const endpoint ep = unique_unix_endpoint();
    auto srv = std::make_unique<server>(svc, ep);

    client bystander(srv->where());
    ASSERT_TRUE(bystander.roundtrip(load_request(small_circuit(14), 1)).ok);

    client terminator(srv->where());
    request down;
    down.id = 9;
    down.payload = shutdown_request{};
    const response ack = terminator.roundtrip(down);
    EXPECT_TRUE(ack.ok);
    EXPECT_EQ(ack.kind(), response_kind::shutdown);

    srv->wait();
    EXPECT_TRUE(srv->draining());
    // The bystander's blocked read woke with EOF instead of hanging.
    response r;
    EXPECT_FALSE(bystander.recv(r, /*timeout_ms=*/5000));
    // And the endpoint is gone: new clients cannot connect.
    srv.reset();  // close + unlink
    EXPECT_THROW(client{ep}, socket_error);
}

TEST(server, stop_is_idempotent_and_safe_from_outside) {
    service svc;
    server srv(svc, unique_unix_endpoint());
    client c(srv.where());
    // One round trip first, so the connection is registered (not still in
    // the accept backlog) when the drain half-closes the readers.
    request stats;
    stats.id = 1;
    stats.payload = stats_request{};
    ASSERT_TRUE(c.roundtrip(stats).ok);
    srv.stop();
    srv.stop();
    srv.wait();
    srv.wait();
    response r;
    EXPECT_FALSE(c.recv(r, /*timeout_ms=*/5000));
}

// --- concurrency ------------------------------------------------------------

// The stress shape: K client threads, each issuing the same mixed script
// (duplicate cache keys across clients, client-private fault-sim seeds,
// evict and stats interleaved) against one server. Every request must be
// answered exactly once with its own id, every job response must be
// bit-identical to a sequential replay on a fresh service (modulo
// revision/elapsed/cached normalization — `cached` legitimately depends
// on which client won the race), and the service must account every job
// as exactly one cache hit or miss.
TEST(server, concurrent_clients_match_sequential_replay) {
    constexpr std::size_t kClients = 8;

    service::options so;
    server::options vo;
    service live(so);
    server srv(live, unique_unix_endpoint(), vo);

    // Three shared circuits, loaded up front over one connection.
    {
        client loader(srv.where());
        for (std::uint64_t s = 0; s < 3; ++s)
            ASSERT_TRUE(
                loader.roundtrip(load_request(small_circuit(20 + s), s)).ok);
    }

    // The per-client script. Job requests (and how many session jobs they
    // expand to) are tagged so the accounting below can count them.
    struct step {
        request q;
        std::size_t jobs = 0;  ///< 0 for stats/evict
    };
    const auto script_for = [](std::size_t who) {
        std::vector<step> script;
        std::uint64_t id = who * 1000;
        test_length_request tl0;
        tl0.circuit = 0;
        script.push_back({job_line(++id, tl0), 1});  // dup key: all clients
        optimize_request op;
        op.circuit = who % 2;
        op.options.max_sweeps = 2;
        script.push_back({job_line(++id, op), 1});  // dup key: half of them
        request stats;
        stats.id = ++id;
        stats.payload = stats_request{};
        script.push_back({stats, 0});
        fault_sim_request fsu;
        fsu.circuit = 1;
        fsu.patterns = 256;
        fsu.seed = 1000 + who;
        script.push_back({job_line(++id, fsu), 1});  // client-private key
        if (who % 4 == 3) {
            request evict;
            evict.id = ++id;
            evict_request ev;
            ev.all = false;
            ev.circuit = 0;
            evict.payload = ev;
            script.push_back({evict, 0});  // interleaved cache eviction
        }
        test_length_request tl2;
        tl2.circuit = 2;
        tl2.confidence = 0.9;
        script.push_back({job_line(++id, tl2), 1});
        request mx;
        mx.id = ++id;
        matrix_request m;
        m.kind = job_kind::test_length;
        m.circuits = {0, 1, 2};
        m.weight_sets = {{}};
        mx.payload = std::move(m);
        script.push_back({mx, 3});
        fault_sim_request fsd;
        fsd.circuit = 0;
        fsd.patterns = 256;
        fsd.seed = 7;
        script.push_back({job_line(++id, fsd), 1});  // dup key: all clients
        return script;
    };

    struct transcript {
        std::vector<request> sent;
        std::vector<std::string> received;
    };
    std::vector<transcript> transcripts(kClients);
    std::size_t expected_jobs = 0;
    for (std::size_t who = 0; who < kClients; ++who)
        for (const step& s : script_for(who)) expected_jobs += s.jobs;

    std::vector<std::thread> threads;
    for (std::size_t who = 0; who < kClients; ++who) {
        threads.emplace_back([&, who] {
            client c(srv.where());
            for (const step& s : script_for(who)) {
                c.send(s.q);
                std::string line;
                ASSERT_EQ(c.recv_line(line), line_status::ok);
                transcripts[who].sent.push_back(s.q);
                transcripts[who].received.push_back(line);
            }
        });
    }
    for (std::thread& t : threads) t.join();

    // Exactly one response per request, each echoing its own id.
    const service::cache_counters counters = live.cache_stats();
    for (std::size_t who = 0; who < kClients; ++who) {
        const auto& t = transcripts[who];
        ASSERT_EQ(t.sent.size(), script_for(who).size());
        ASSERT_EQ(t.received.size(), t.sent.size());
        for (std::size_t i = 0; i < t.sent.size(); ++i) {
            const response r = decode_response(t.received[i]);
            EXPECT_EQ(r.id, t.sent[i].id) << "client " << who << " step " << i;
            EXPECT_TRUE(r.ok) << "client " << who << " step " << i << ": "
                              << t.received[i];
        }
    }

    // Every job is exactly one hit or one miss — the cache accounting
    // holds under the race (duplicate concurrent misses both count).
    EXPECT_EQ(counters.hits + counters.misses, expected_jobs);

    // Bit-identity against a sequential replay: a fresh service, same
    // circuits, every job request replayed one by one. Job payloads must
    // match the live concurrent responses byte for byte after
    // normalizing revision/elapsed/cached.
    service replay(so);
    for (std::uint64_t s = 0; s < 3; ++s)
        ASSERT_TRUE(replay.handle(load_request(small_circuit(20 + s), s)).ok);
    for (std::size_t who = 0; who < kClients; ++who) {
        const auto& t = transcripts[who];
        for (std::size_t i = 0; i < t.sent.size(); ++i) {
            const request_kind k = t.sent[i].kind();
            if (k == request_kind::stats || k == request_kind::evict)
                continue;  // counters legitimately depend on interleaving
            const response expected = replay.handle(t.sent[i]);
            EXPECT_EQ(normalized(t.received[i], /*drop_cached=*/true),
                      normalized(encode(expected), /*drop_cached=*/true))
                << "client " << who << " step " << i;
        }
    }

    request down;
    down.id = 424242;
    down.payload = shutdown_request{};
    client(srv.where()).roundtrip(down);
    srv.wait();
}

// The acceptance shape: after one warm-up pass, a scripted session is
// replayed by 8 concurrent clients and every client's response stream is
// byte-identical (modulo revision/elapsed normalization) to the
// single-client reference stream — the socket analogue of the CI golden
// diff (which runs the same check through `wrpt_cli serve/request`).
TEST(server, eight_clients_replay_a_warm_session_identically) {
    constexpr std::size_t kClients = 8;

    service svc;
    server srv(svc, unique_unix_endpoint());

    const auto session_script = [] {
        std::vector<request> script;
        test_length_request tl;
        tl.circuit = 0;
        script.push_back(job_line(1, tl));
        optimize_request op;
        op.circuit = 0;
        op.options.max_sweeps = 2;
        script.push_back(job_line(2, op));
        script.push_back(job_line(3, op));  // repeat: cached either way
        fault_sim_request fs;
        fs.circuit = 0;
        fs.patterns = 512;
        fs.seed = 7;
        script.push_back(job_line(4, fs));
        request mx;
        mx.id = 5;
        matrix_request m;
        m.kind = job_kind::test_length;
        m.weight_sets = {{}};
        mx.payload = std::move(m);
        script.push_back(mx);
        test_length_request bad;
        bad.circuit = 66;
        script.push_back(job_line(6, bad));  // deterministic envelope
        return script;
    };

    const auto run_session = [&](std::vector<std::string>& out) {
        client c(srv.where());
        for (const request& q : session_script()) {
            c.send(q);
            std::string line;
            ASSERT_EQ(c.recv_line(line), line_status::ok);
            out.push_back(normalized(line));
        }
    };

    {
        client loader(srv.where());
        ASSERT_TRUE(loader.roundtrip(load_request(small_circuit(31), 1)).ok);
    }
    // Warm-up pass: after it, every job in the script is a cache hit, so
    // the cached flags (and the zero elapsed) are deterministic for every
    // later client however the 8 sessions interleave.
    std::vector<std::string> reference_warmup;
    run_session(reference_warmup);
    std::vector<std::string> reference;
    run_session(reference);

    std::vector<std::vector<std::string>> streams(kClients);
    std::vector<std::thread> threads;
    for (std::size_t who = 0; who < kClients; ++who)
        threads.emplace_back([&, who] { run_session(streams[who]); });
    for (std::thread& t : threads) t.join();

    for (std::size_t who = 0; who < kClients; ++who) {
        ASSERT_EQ(streams[who].size(), reference.size());
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(streams[who][i], reference[i])
                << "client " << who << " line " << i;
    }

    srv.stop();
    srv.wait();
}

// --- backpressure -----------------------------------------------------------

TEST(server, pipelined_requests_are_answered_in_order) {
    // The reactor hands a connection's lines to one worker at a time (a
    // per-connection actor), so a pipelining client gets its responses
    // back in request order — the JSON-lines contract the blocking
    // server gave for free.
    service svc;
    server srv(svc, unique_unix_endpoint());
    client c(srv.where());
    ASSERT_TRUE(c.roundtrip(load_request(small_circuit(61), 1)).ok);

    constexpr std::uint64_t kPipelined = 64;
    test_length_request tl;
    tl.circuit = 0;
    for (std::uint64_t i = 0; i < kPipelined; ++i)
        c.send(job_line(100 + i, tl));  // no reads until everything left
    for (std::uint64_t i = 0; i < kPipelined; ++i) {
        response r;
        ASSERT_TRUE(c.recv(r)) << "response " << i;
        EXPECT_EQ(r.id, 100 + i) << "responses must keep request order";
        EXPECT_TRUE(r.ok);
    }
    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().requests, kPipelined + 1);
}

TEST(server, ten_thousand_pipelined_requests_reuse_buffers_bit_identically) {
    // Stress for the buffer-reuse hot path: the outbox marks its sent
    // prefix by offset instead of erasing, request lines recycle through
    // the retired-buffer pool, and every response encodes into the one
    // worker scratch string. None of that may reorder a response or
    // change a byte under a deep pipeline on a single connection.
    service svc;
    server::options opt;
    opt.max_queue_bytes = 0;  // the reader lags the writer by design:
                              // this test is about bytes, not backpressure
    server srv(svc, unique_unix_endpoint(), opt);
    client c(srv.where());
    ASSERT_TRUE(c.roundtrip(load_request(small_circuit(63), 1)).ok);

    test_length_request tl;
    tl.circuit = 0;
    ASSERT_TRUE(c.roundtrip(job_line(2, tl)).ok);  // warm the cache: every
                                                   // pipelined copy below
                                                   // is a pure hit

    constexpr std::uint64_t kPipelined = 10000;
    std::thread writer([&] {
        for (std::uint64_t i = 0; i < kPipelined; ++i)
            c.send(job_line(1000 + i, tl));
    });

    // Cache hits carry elapsed_ms 0 and one stable revision, so the
    // responses must be bit-identical down to the id (the canonical
    // encoders make re-encoding the decoded line an exact byte check).
    std::string reference;
    for (std::uint64_t i = 0; i < kPipelined; ++i) {
        std::string line;
        ASSERT_EQ(c.recv_line(line, /*timeout_ms=*/30000), line_status::ok)
            << "response " << i;
        response r = decode_response(line);
        ASSERT_TRUE(r.ok) << "response " << i;
        ASSERT_EQ(r.id, 1000 + i) << "responses must keep request order";
        ASSERT_TRUE(std::get<test_length_response>(r.payload).cached)
            << "response " << i;
        r.id = 0;
        const std::string canon = encode(r);
        if (i == 0) {
            reference = canon;
        } else {
            ASSERT_EQ(canon, reference) << "bytes diverged at response " << i;
        }
    }
    writer.join();
    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().requests, kPipelined + 2);
}

TEST(server, slow_readers_are_refused_and_dropped) {
    // A client that keeps sending but never drains its responses must
    // not buffer unboundedly inside the daemon: once the kernel socket
    // buffers are full and the per-connection outbox cap is hit, the
    // server queues a refusal envelope, drops the rest, and hangs up.
    service svc;
    server::options opt;
    opt.max_queue_bytes = 4096;     // tiny response budget
    opt.max_pending_requests = 0;   // keep reading: isolate the response side
    server srv(svc, unique_unix_endpoint(), opt);

    client c(srv.where());
    ASSERT_TRUE(c.roundtrip(load_request(small_circuit(62), 1)).ok);

    // Each matrix answers with 64 embedded test-length responses (~10KB
    // encoded, cache hits after the first), so a short pipelined burst
    // overwhelms kernel buffering plus the 4KB outbox quickly.
    request mx;
    matrix_request m;
    m.kind = job_kind::test_length;
    m.circuits.assign(64, 0);
    m.weight_sets = {{}};
    mx.payload = std::move(m);
    bool peer_closed_early = false;
    for (std::uint64_t i = 0; i < 256 && !peer_closed_early; ++i) {
        mx.id = 100 + i;
        try {
            c.send(mx);  // never reading
        } catch (const socket_error&) {
            peer_closed_early = true;  // already dropped mid-burst
        }
    }

    // Now drain: some real responses, then the refusal envelope, then
    // EOF — and the drop is visible in the counters.
    bool saw_refusal = false;
    std::string line;
    while (c.recv_line(line, /*timeout_ms=*/10000) == line_status::ok) {
        const response r = decode_response(line);
        if (!r.ok) {
            EXPECT_NE(std::get<error_response>(r.payload).message.find(
                          "slow reader"),
                      std::string::npos);
            saw_refusal = true;
        } else {
            EXPECT_FALSE(saw_refusal) << "refusal must be the last line";
        }
    }
    EXPECT_TRUE(saw_refusal);
    srv.stop();
    srv.wait();
    EXPECT_GE(srv.stats().queue_drops, 1u);
}

TEST(server, slow_but_draining_readers_receive_the_whole_stream) {
    // send_timeout bounds a *stall*, not the whole transfer: a client
    // that EOF'd its request side and drains its responses slowly — each
    // pause well under the timeout, the total far over it — must receive
    // every line. (A deadline armed once and never cleared on progress
    // would cut this client off mid-stream.)
    service svc;
    server::options opt;
    opt.send_timeout_ms = 250;  // total drain below takes several times this
    opt.max_queue_bytes = 0;    // isolate the deadline: no slow-reader drop
    server srv(svc, unique_unix_endpoint(), opt);

    client c(srv.where());
    ASSERT_TRUE(c.roundtrip(load_request(small_circuit(64), 1)).ok);

    // Pipeline a response volume far beyond kernel socket buffering, so
    // the server still holds outbox bytes when it sees our EOF and arms
    // the drop deadline.
    constexpr std::uint64_t kBursts = 48;
    request mx;
    matrix_request m;
    m.kind = job_kind::test_length;
    m.circuits.assign(128, 0);  // ~20KB per encoded response, cache hits
    m.weight_sets = {{}};
    mx.payload = std::move(m);
    for (std::uint64_t i = 0; i < kBursts; ++i) {
        mx.id = 100 + i;
        c.send(mx);
    }
    c.shutdown_write();  // orderly EOF: no more requests, still reading

    // Drain slowly: ~40ms between lines keeps every stall far under the
    // 250ms grace while the full transfer takes ~2s.
    std::uint64_t received = 0;
    std::string line;
    while (c.recv_line(line, /*timeout_ms=*/10000) == line_status::ok) {
        const response r = decode_response(line);
        EXPECT_TRUE(r.ok) << std::get<error_response>(r.payload).message;
        ++received;
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
    EXPECT_EQ(received, kBursts);
    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().timeouts, 0u);
    EXPECT_EQ(srv.stats().queue_drops, 0u);
}

TEST(server, request_flow_control_pauses_reads_without_dropping) {
    // The request-side bound is flow control, not rejection: a deep
    // pipelined burst beyond max_pending_requests backs up into the
    // client's kernel buffer and still gets every answer, in order.
    service svc;
    server::options opt;
    opt.max_pending_requests = 4;
    server srv(svc, unique_unix_endpoint(), opt);
    client c(srv.where());
    ASSERT_TRUE(c.roundtrip(load_request(small_circuit(63), 1)).ok);

    constexpr std::uint64_t kBurst = 128;
    test_length_request tl;
    tl.circuit = 0;
    std::thread reader([&] {
        for (std::uint64_t i = 0; i < kBurst; ++i) {
            response r;
            ASSERT_TRUE(c.recv(r, /*timeout_ms=*/30000)) << "response " << i;
            EXPECT_EQ(r.id, 200 + i);
        }
    });
    for (std::uint64_t i = 0; i < kBurst; ++i) c.send(job_line(200 + i, tl));
    reader.join();
    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().requests, kBurst + 1);
    EXPECT_EQ(srv.stats().queue_drops, 0u);
}

TEST(server, mixed_fast_and_slow_clients_match_sequential_replay) {
    // Backpressure must not bend results: 8 clients — half reading
    // promptly, half pipelining their whole script first and draining
    // late through a deliberately tiny flow-control window — all get
    // response streams bit-identical to the warm single-client
    // reference.
    constexpr std::size_t kClients = 8;

    service svc;
    server::options opt;
    opt.max_pending_requests = 2;  // the slow half leans on flow control
    server srv(svc, unique_unix_endpoint(), opt);
    {
        client loader(srv.where());
        ASSERT_TRUE(loader.roundtrip(load_request(small_circuit(64), 1)).ok);
    }

    const auto session_script = [] {
        std::vector<request> script;
        test_length_request tl;
        tl.circuit = 0;
        script.push_back(job_line(1, tl));
        optimize_request op;
        op.circuit = 0;
        op.options.max_sweeps = 2;
        script.push_back(job_line(2, op));
        fault_sim_request fs;
        fs.circuit = 0;
        fs.patterns = 256;
        fs.seed = 5;
        script.push_back(job_line(3, fs));
        request mx;
        mx.id = 4;
        matrix_request m;
        m.kind = job_kind::test_length;
        m.circuits.assign(4, 0);
        m.weight_sets = {{}};
        mx.payload = std::move(m);
        script.push_back(mx);
        test_length_request bad;
        bad.circuit = 66;
        script.push_back(job_line(5, bad));  // deterministic envelope
        return script;
    };

    const auto run_fast = [&](std::vector<std::string>& out) {
        client c(srv.where());
        for (const request& q : session_script()) {
            c.send(q);
            std::string line;
            ASSERT_EQ(c.recv_line(line), line_status::ok);
            out.push_back(normalized(line));
        }
    };
    const auto run_slow = [&](std::vector<std::string>& out) {
        // Pipeline everything, dawdle, then drain — the server pauses
        // reading us at 2 pending requests and resumes as the worker
        // catches up; nothing may be lost or reordered.
        client c(srv.where());
        const auto script = session_script();
        for (const request& q : script) c.send(q);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        for (std::size_t i = 0; i < script.size(); ++i) {
            std::string line;
            ASSERT_EQ(c.recv_line(line, /*timeout_ms=*/30000),
                      line_status::ok);
            out.push_back(normalized(line));
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    };

    // Warm-up, then the deterministic reference stream.
    std::vector<std::string> warmup, reference;
    run_fast(warmup);
    run_fast(reference);

    std::vector<std::vector<std::string>> streams(kClients);
    std::vector<std::thread> threads;
    for (std::size_t who = 0; who < kClients; ++who) {
        threads.emplace_back([&, who] {
            if (who % 2 == 0)
                run_fast(streams[who]);
            else
                run_slow(streams[who]);
        });
    }
    for (std::thread& t : threads) t.join();

    for (std::size_t who = 0; who < kClients; ++who) {
        ASSERT_EQ(streams[who].size(), reference.size()) << "client " << who;
        for (std::size_t i = 0; i < reference.size(); ++i)
            EXPECT_EQ(streams[who][i], reference[i])
                << "client " << who << " line " << i;
    }
    srv.stop();
    srv.wait();
    EXPECT_EQ(srv.stats().queue_drops, 0u);
}

// --- reactor scale ----------------------------------------------------------

#ifdef __linux__
namespace {
int process_thread_count() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (!f) return -1;
    char line[256];
    int threads = -1;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "Threads: %d", &threads) == 1) break;
    std::fclose(f);
    return threads;
}
}  // namespace

TEST(server, thread_count_does_not_scale_with_connections) {
    // The event-driven core's defining property: the daemon is one
    // reactor plus a fixed worker set, so parking 50 extra connections
    // must not add a single thread (the session-per-connection model
    // would add 50).
    service svc;
    server srv(svc, unique_unix_endpoint());
    client active(srv.where());
    request stats;
    stats.id = 1;
    stats.payload = stats_request{};
    ASSERT_TRUE(active.roundtrip(stats).ok);

    const int before = process_thread_count();
    ASSERT_GT(before, 0);

    std::vector<client> parked(50);
    for (auto& p : parked) p.connect(srv.where(), 2000);
    // Make sure every parked connection is truly registered, not still
    // in the backlog: the admission counter is the reactor's own view.
    // A loaded host can take well over a second to accept 51 peers, so
    // wait on a deadline and return as soon as the count is reached.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (srv.stats().accepted < 51 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_EQ(srv.stats().accepted, 51u);
    EXPECT_EQ(srv.stats().active, 51u);

    EXPECT_EQ(process_thread_count(), before)
        << "holding idle connections must not spawn threads";
    ASSERT_TRUE(active.roundtrip(stats).ok);  // still serving under load
    srv.stop();
    srv.wait();
}

TEST(server, tenant_threads_run_on_the_session_pool) {
    // One compute pool per process: the daemon runs the reactor, the
    // --workers set and the session pool (--threads), whatever the
    // hardware. A tenant's optimize with threads 8 shards its stages on
    // the session pool, so it starts no thread of its own.
    service::options so;
    so.threads = 2;
    service svc(so);
    server::options opt;
    opt.workers = 2;
    server srv(svc, unique_unix_endpoint(), opt);
    client c(srv.where());
    ASSERT_TRUE(c.roundtrip(load_request(small_circuit(29), 1)).ok);

    const int before = process_thread_count();
    ASSERT_GT(before, 0);
    optimize_request op;
    op.circuit = 0;
    op.options.max_sweeps = 2;
    op.options.threads = 8;
    const response r = c.roundtrip(job_line(2, op));
    ASSERT_TRUE(r.ok);
    EXPECT_FALSE(std::get<optimize_response>(r.payload).cached);
    EXPECT_EQ(process_thread_count(), before)
        << "a tenant's threads must not start threads";
    srv.stop();
    srv.wait();
}
#endif  // __linux__

#if defined(__SANITIZE_THREAD__)
#define WRPT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define WRPT_TSAN 1
#endif
#endif

TEST(server, accept_backoff_survives_fd_exhaustion) {
#ifdef WRPT_TSAN
    GTEST_SKIP() << "fd exhaustion starves the sanitizer runtime itself";
#else
    // Descriptor exhaustion at accept() (EMFILE) must not kill the
    // daemon or its existing sessions: the reactor backs off, keeps
    // serving, and accepts the waiting peer once descriptors return.
    service svc;
    server::options opt;
    opt.accept_backoff_ms = 20;
    server srv(svc, unique_unix_endpoint(), opt);
    client established(srv.where());
    request stats;
    stats.id = 1;
    stats.payload = stats_request{};
    ASSERT_TRUE(established.roundtrip(stats).ok);

    rlimit saved{};
    ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit tight = saved;
    tight.rlim_cur = 64;
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);

    // Burn every free descriptor slot...
    std::vector<int> burned;
    for (;;) {
        const int fd = ::dup(0);
        if (fd < 0) break;
        burned.push_back(fd);
    }
    ASSERT_FALSE(burned.empty());
    // ...then hand exactly one back so the client can make its socket
    // while the server still has none to accept with.
    ::close(burned.back());
    burned.pop_back();

    client starved(srv.where(), 2000);  // queued in the backlog
    bool backed_off = false;
    for (int spin = 0; spin < 1000 && !backed_off; ++spin) {
        backed_off = srv.stats().accept_backoffs > 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(backed_off);
    // The established session kept working through the exhaustion.
    ASSERT_TRUE(established.roundtrip(stats).ok);

    for (const int fd : burned) ::close(fd);
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);

    // Descriptors are back: the backoff expires and the waiting peer is
    // finally served on its original connection.
    stats.id = 2;
    ASSERT_TRUE(starved.roundtrip(stats).ok);
    srv.stop();
    srv.wait();
    EXPECT_GE(srv.stats().accept_backoffs, 1u);
    EXPECT_EQ(srv.stats().accepted, 2u);
#endif
}

// --- wire-visible server stats ----------------------------------------------

TEST(server, stats_responses_carry_the_server_section_over_sockets) {
    service svc;
    server::options opt;
    opt.workers = 2;
    opt.max_connections = 32;
    server srv(svc, unique_unix_endpoint(), opt);
    client c(srv.where());
    request stats;
    stats.id = 7;
    stats.payload = stats_request{};
    const response r = c.roundtrip(stats);
    ASSERT_TRUE(r.ok);
    const auto& sp = std::get<stats_response>(r.payload).server;
    ASSERT_TRUE(sp.present) << "socket-served stats must carry the section";
    EXPECT_EQ(sp.workers, 2u);
    EXPECT_EQ(sp.max_connections, 32u);
    EXPECT_EQ(sp.active, 1u);
    EXPECT_EQ(sp.accepted, 1u);
    EXPECT_EQ(sp.requests, 1u);  // this very request, counted
    EXPECT_EQ(sp.queue_drops, 0u);

    // The direct in-process path stays clean: no server, no section —
    // and no "server" key on the wire, so stdin-daemon transcripts are
    // unchanged.
    const response direct = svc.handle(stats);
    EXPECT_FALSE(std::get<stats_response>(direct.payload).server.present);
    EXPECT_EQ(encode(direct).find("\"server\""), std::string::npos);
    EXPECT_NE(encode(r).find("\"server\""), std::string::npos);

    srv.stop();
    srv.wait();
}

TEST(server, concurrent_loads_get_distinct_handles) {
    // load_circuit takes the session structure exclusively; concurrent
    // loads and jobs must interleave without torn handles.
    service svc;
    server srv(svc, unique_unix_endpoint());
    {
        client c(srv.where());
        ASSERT_TRUE(c.roundtrip(load_request(small_circuit(41), 1)).ok);
    }
    constexpr std::size_t kLoaders = 4;
    std::vector<std::size_t> handles(kLoaders, SIZE_MAX);
    std::vector<std::thread> threads;
    for (std::size_t who = 0; who < kLoaders; ++who) {
        threads.emplace_back([&, who] {
            client c(srv.where());
            // An empty-circuits matrix expands against the live circuit
            // table — the expansion itself must ride the session lock,
            // so racing it against the loads is the regression check.
            request mx;
            mx.id = 1;
            matrix_request m;
            m.kind = job_kind::test_length;
            m.weight_sets = {{}};
            mx.payload = std::move(m);
            ASSERT_TRUE(c.roundtrip(mx).ok);
            const response r =
                c.roundtrip(load_request(small_circuit(50 + who), 2));
            ASSERT_TRUE(r.ok);
            handles[who] = std::get<load_circuit_response>(r.payload).circuit;
            test_length_request tl;
            tl.circuit = 0;
            ASSERT_TRUE(c.roundtrip(job_line(3, tl)).ok);
        });
    }
    for (std::thread& t : threads) t.join();

    std::vector<std::size_t> sorted = handles;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i + 1) << "handles must be dense and distinct";
    EXPECT_EQ(svc.session().circuit_count(), kLoaders + 1);
    srv.stop();
    srv.wait();
}

}  // namespace
}  // namespace wrpt
