// Fuzz/property suite for the wire codec — the contract a long-lived
// daemon's parser must keep against arbitrary bytes: every generated
// valid request and response round-trips byte-identically, and every
// mutated, truncated or garbage line either decodes or throws wire_error
// — it never crashes, hangs, or escapes as a non-wrpt exception.
// extract_id must additionally be total: any byte salad yields *some* id
// without throwing.
//
// The generators walk the codec's own field descriptions (svc/schema.h),
// so every field of every kind is fuzzed without being listed here.
// Everything is driven by the repo's deterministic splitmix/xoshiro rng,
// so a failure reproduces from the seed printed in the assertion message.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/request.h"
#include "svc/schema.h"
#include "svc/wire.h"
#include "util/rng.h"

namespace wrpt::svc {
namespace {

// --- random payloads from the field descriptions ---------------------------

double finite_double(rng& r) {
    switch (r.next_below(6)) {
        case 0: return 0.0;
        case 1: return static_cast<double>(r.next_below(1u << 20));
        case 2: return std::ldexp(static_cast<double>(r.next_word() >> 11),
                                  -53);  // [0,1) at full precision
        case 3: return 1e-300 * static_cast<double>(r.next_below(1000));
        case 4: return -static_cast<double>(r.next_below(1 << 16)) / 3.0;
        default: {
            // Arbitrary finite bit patterns: re-roll the rare non-finite.
            for (;;) {
                std::uint64_t bits = r.next_word();
                double d;
                static_assert(sizeof bits == sizeof d);
                std::memcpy(&d, &bits, sizeof d);
                if (std::isfinite(d)) return d;
            }
        }
    }
}

std::string random_text(rng& r) {
    static const char* samples[] = {
        "",           "S1",          "a b c",        "quote\"back\\slash",
        "tab\there",  "new\nline",   "control\x01\x1f", "utf8 \xc3\xa9\xe2\x82\xac",
        "sock.bench", "/tmp/x.bench"};
    std::string s = samples[r.next_below(std::size(samples))];
    // Occasionally append random printable noise.
    const std::uint64_t extra = r.next_below(8);
    for (std::uint64_t i = 0; i < extra; ++i)
        s.push_back(static_cast<char>(' ' + r.next_below(95)));
    return s;
}

/// Fills any described payload with random values by walking its field
/// description, and records the spellings it produced ("name:sent",
/// "name:omitted", "req=optimize", ...) so the properties can check they
/// reached every kind and both spellings of every omit_empty field.
class random_fill {
public:
    explicit random_fill(rng& r) : r_(r) {}

    template <class T>
    void operator()(std::string_view, T& m) {
        value(m);
    }

    template <class T>
    void operator()(std::string_view key, T& m, omit_empty_t) {
        const bool sent = r_.next_below(2) == 0;
        seen.insert(std::string(key) + (sent ? ":sent" : ":omitted"));
        if (!sent) return;
        if constexpr (requires { m.present; }) m.present = true;
        do value(m);
        while (empty_field(m));
    }

    void operator()(std::string_view, bool& m, true_unless_sent) { value(m); }

    template <class K, std::size_t N>
    void operator()(std::string_view key, K& m, const kind_names<N>& kinds) {
        const std::size_t i = r_.next_below(N);
        seen.insert(std::string(key) + "=" + std::string(kinds.names[i]));
        set_kind(m, i);
    }

    template <class F>
    void group(std::string_view, F&& list) {
        list(*this);
    }

    template <class T>
    void value(T& m) {
        if constexpr (std::is_same_v<T, std::string>) {
            m = random_text(r_);
        } else if constexpr (std::is_same_v<T, bool>) {
            m = r_.next_below(2) == 0;
        } else if constexpr (std::is_same_v<T, double>) {
            m = finite_double(r_);
        } else if constexpr (std::is_unsigned_v<T>) {
            // Small values and the member's whole range alike.
            m = static_cast<T>(r_.next_below(2) ? r_.next_below(1000)
                                                : r_.next_word());
        } else if constexpr (wire_list<T>) {
            // Lists three objects deep stay empty, which bounds matrix
            // results that nest matrix results.
            m.resize(depth_ < 3 ? r_.next_below(8) : 0);
            for (auto& e : m) value(e);
        } else {
            ++depth_;
            fields(m, *this);
            --depth_;
        }
    }

    template <class T>
    T make() {
        T m;
        value(m);
        return m;
    }

    std::set<std::string> seen;

private:
    rng& r_;
    int depth_ = 0;
};

/// The fill reached every kind under `key` and both spellings of every
/// omit_empty field it met.
template <std::size_t N>
void expect_coverage(const random_fill& fill, const std::string& key,
                     const kind_names<N>& kinds) {
    for (const std::string_view name : kinds.names)
        EXPECT_EQ(fill.seen.count(key + "=" + std::string(name)), 1u)
            << key << "=" << name << " never generated";
    for (const std::string& s : fill.seen) {
        const std::size_t colon = s.find(':');
        if (colon == std::string::npos) continue;
        const std::string field = s.substr(0, colon);
        EXPECT_EQ(fill.seen.count(field + ":sent"), 1u) << field;
        EXPECT_EQ(fill.seen.count(field + ":omitted"), 1u) << field;
    }
}

/// 1-4 random byte edits: overwrite, insert, or delete.
std::string mutate(rng& r, std::string line) {
    const std::uint64_t edits = 1 + r.next_below(4);
    for (std::uint64_t e = 0; e < edits && !line.empty(); ++e) {
        const std::size_t pos = r.next_below(line.size());
        switch (r.next_below(3)) {
            case 0: line[pos] = static_cast<char>(r.next_below(256)); break;
            case 1:
                line.insert(pos, 1, static_cast<char>(r.next_below(256)));
                break;
            default: line.erase(pos, 1); break;
        }
    }
    return line;
}

std::string truncate(rng& r, const std::string& line) {
    return line.substr(0, r.next_below(line.size() + 1));
}

// --- properties -------------------------------------------------------------

TEST(wire_fuzz, random_valid_requests_round_trip_byte_identically) {
    rng r(0xf022ed1);
    random_fill fill(r);
    for (int trial = 0; trial < 2000; ++trial) {
        const request q = fill.make<request>();
        const std::string wire1 = encode(q);
        request back;
        ASSERT_NO_THROW(back = decode_request(wire1))
            << "trial " << trial << ": " << wire1;
        const std::string wire2 = encode(back);
        // Canonical-encoder contract: one decode/encode cycle is the
        // identity on the wire bytes.
        ASSERT_EQ(wire1, wire2) << "trial " << trial;
        // And so is a second cycle (no drift).
        ASSERT_EQ(encode(decode_request(wire2)), wire2) << "trial " << trial;
    }
    expect_coverage(fill, "req", request_kinds);
    expect_coverage(fill, "kind", job_kinds);
}

/// Run one hostile line through both decoders: any outcome is fine except
/// a crash, a hang, or an exception that is not wire_error.
void expect_contained(const std::string& line, const char* what, int trial) {
    const auto contained = [&](auto decode) {
        try {
            (void)decode(line);
        } catch (const wire_error&) {
            // The documented failure mode.
        } catch (const std::exception& e) {
            FAIL() << what << " trial " << trial << ": non-wire exception: "
                   << e.what() << "\nline: " << line;
        }
    };
    contained(decode_request);
    contained(decode_response);
    // extract_id is total: never throws, whatever the bytes.
    (void)extract_id(line);
}

TEST(wire_fuzz, mutated_requests_decode_or_raise_wire_error) {
    rng r(0xbadc0de);
    random_fill fill(r);
    for (int trial = 0; trial < 4000; ++trial)
        expect_contained(mutate(r, encode(fill.make<request>())), "mutated",
                         trial);
    expect_coverage(fill, "req", request_kinds);
}

TEST(wire_fuzz, truncated_requests_decode_or_raise_wire_error) {
    rng r(0x7a61c);
    random_fill fill(r);
    for (int trial = 0; trial < 2000; ++trial)
        expect_contained(truncate(r, encode(fill.make<request>())),
                         "truncated", trial);
    expect_coverage(fill, "req", request_kinds);
}

TEST(wire_fuzz, garbage_lines_decode_or_raise_wire_error) {
    rng r(0x6a2ba6e);
    for (int trial = 0; trial < 4000; ++trial) {
        std::string line(r.next_below(300), '\0');
        for (char& c : line) c = static_cast<char>(r.next_below(256));
        expect_contained(line, "garbage", trial);
    }
}

TEST(wire_fuzz, structured_garbage_decodes_or_raises_wire_error) {
    // JSON-shaped hostility the uniform generator rarely finds: deep
    // nesting (the 64-level cap), huge numbers, surrogate abuse, BOMs.
    const std::string cases[] = {
        std::string(100000, '['),
        std::string(100, '{') + "\"a\":1" + std::string(100, '}'),
        "{\"req\":\"optimize\",\"id\":1e999}",
        "{\"req\":\"test_length\",\"circuit\":99999999999999999999999999}",
        "{\"req\":\"fault_sim\",\"weights\":[1e309]}",
        "{\"req\":\"fault_sim\",\"weights\":[NaN]}",
        "{\"req\":\"fault_sim\",\"weights\":[Infinity]}",
        "{\"req\":\"load_circuit\",\"name\":\"\\ud800\"}",
        "{\"req\":\"load_circuit\",\"name\":\"\\udc00\\ud800\"}",
        "{\"req\":\"load_circuit\",\"name\":\"\\ud83d\\ude00\"}",  // valid pair
        "\xef\xbb\xbf{\"req\":\"stats\"}",
        "{\"req\":\"stats\",}",
        "{\"req\":\"stats\"} trailing",
        "{\"req\": \"stats\", \"id\": -1}",
        "{\"req\":\"matrix\",\"weight_sets\":[[[[[1]]]]]}",
        "{\"req\":\"register_circuit\"}",
        "{\"req\":\"register_circuit\",\"tenant\":7,\"name\":[]}",
        "{\"req\":\"reload_circuit\",\"tenant\":\"t\",\"name\":null}",
        "{\"req\":\"list_circuits\",\"tenant\":{\"a\":1}}",
        "{\"req\":\"test_length\",\"name\":\"t/c\",\"circuit\":\"t/c\"}",
        "{\"req\":\"test_length\",\"id\":1,\"threads\":4294967297}",
        "{\"id\":1,\"ok\":true,\"resp\":\"stats\",\"simd_isa\":7}",
        "null",
        "[]",
        "\"stats\"",
        "{}",
        "{\"id\":7}",
    };
    int trial = 0;
    for (const std::string& line : cases) expect_contained(line, "case", trial++);
}

TEST(wire_fuzz, extract_id_recovers_ids_from_broken_lines) {
    // A truncated request whose "id" field survived must still be
    // addressable, so the daemon's error envelope reaches the caller.
    rng r(0x1dc0ffee);
    random_fill fill(r);
    for (int trial = 0; trial < 500; ++trial) {
        request q = fill.make<request>();
        q.id = 1 + r.next_below(1u << 30);  // nonzero, exactly recoverable
        std::string line = encode(q);
        // The canonical encoders place "id" first or second; keep the
        // prefix through the id value and truncate somewhere after it.
        const std::size_t id_pos = line.find("\"id\":");
        ASSERT_NE(id_pos, std::string::npos);
        std::size_t end = id_pos + 5;
        while (end < line.size() && line[end] >= '0' && line[end] <= '9')
            ++end;
        const std::string cut =
            line.substr(0, end + r.next_below(line.size() - end + 1));
        EXPECT_EQ(extract_id(cut), q.id) << "line: " << cut;
    }
    // Total on arbitrary bytes, 0 when no id can be recovered.
    EXPECT_EQ(extract_id(""), 0u);
    EXPECT_EQ(extract_id("not json at all"), 0u);
    EXPECT_EQ(extract_id("{\"id\":}"), 0u);
    EXPECT_EQ(extract_id("{\"id\":\"text\"}"), 0u);
    EXPECT_EQ(extract_id("{\"id\":42"), 42u);
    EXPECT_EQ(extract_id("garbage \"id\":7 garbage"), 7u);
}

TEST(wire_fuzz, responses_survive_mutation_too) {
    // decode_response shares the parser; the same round-trip, mutation
    // and truncation properties hold for every response kind (the
    // client's hostile-server story).
    rng r(0x5e5510);
    random_fill fill(r);
    for (int trial = 0; trial < 2000; ++trial) {
        const std::string line = encode(fill.make<response>());
        ASSERT_EQ(encode(decode_response(line)), line) << "trial " << trial;
        expect_contained(mutate(r, line), "mutated response", trial);
        expect_contained(truncate(r, line), "truncated response", trial);
    }
    expect_coverage(fill, "resp", response_kinds);
}

// --- golden canonical bytes -------------------------------------------------

/// One hand-built value per wire kind, in the line order of
/// tests/golden/wire_kinds.golden: every request kind, then every response
/// kind, with both spellings of each field or section that is sent only
/// when non-empty (a job's name, an error's code, list_circuits' tenant,
/// the stats registry/server sections).
const std::string golden_text = "tab\there \"q\" back\\slash \x01 \xc3\xa9";
constexpr double subnormal = std::numeric_limits<double>::denorm_min();
constexpr double shortest = 0.1 + 0.2;  // 0.30000000000000004

std::vector<request> golden_requests() {
    optimize_options opts;
    opts.prepare_block = SIZE_MAX;
    opts.threads = 4;
    opts.grid = 0.0;
    opts.saddle_escape = false;
    return {
        {1, load_circuit_request{"alu", "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n",
                                 "", "S1"}},
        {2, test_length_request{3, "", {0.5, subnormal, shortest}, 0.999, 1}},
        {3, test_length_request{0, "acme/alu", {}, 0.0, 8}},
        {4, optimize_request{7, "", {0.25, 1e300}, opts}},
        {5, optimize_request{0, "acme/alu", {}, {}}},
        {6, fault_sim_request{1, "", {0.5}, 1 << 20,
                              std::numeric_limits<std::uint64_t>::max()}},
        {7, fault_sim_request{0, golden_text, {}, 4096, 1}},
        {8, matrix_request{job_kind::fault_sim, {0, 2},
                           {{0.5, 0.25}, {}, {shortest}}, opts, 100, 9,
                           0.9}},
        {9, matrix_request{}},
        {10, stats_request{}},
        {11, evict_request{false, 3, 2}},
        {12, evict_request{}},
        {13, shutdown_request{}},
        {14, register_circuit_request{"acme", "alu", "", "/tmp/x.bench", ""}},
        {15, reload_circuit_request{"acme", "alu", golden_text, "", ""}},
        {16, list_circuits_request{"acme"}},
        {17, list_circuits_request{}},
    };
}

std::vector<response> golden_responses() {
    stats_response bare;
    bare.requests = 5;
    bare.cache_probes = 4;
    bare.cache_hits = 3;
    bare.cache_misses = 1;
    bare.cache_entries = 2;
    bare.cache_bytes = 1024;
    bare.circuits = 1;
    bare.simd_isa = "avx2";
    bare.simd_lanes = 4;
    bare.pools = {{0, 11, 2, 1, 0, 5, 2, 0, 0, 3},
                  {1, 12, 1, 1, 4, 0, 1, 1, 1, 0}};
    stats_response full = bare;
    full.cache_evictions = 6;
    full.registry = {true, 2, 1, 8, 3, 4,
                     {{"acme", 2, 512, 10, 4, 4096, 1},
                      {golden_text, 0, 0, 0, 0, 0, 0}}};
    full.server = {true, 3, 4, 100, 16, 65536, 9, 1, 40, 2, 0, 1, 1, 0};
    optimize_response opt{0, 21, false, 12.5, true, 1e9, 3.5e4, 3, 40, 0,
                          {0.05, 0.95, shortest},
                          {true, 3.5e4, 17, 0, subnormal}};
    matrix_response mx;
    mx.results = {response{0, true,
                           test_length_response{1, 3, true, 0.0,
                                                {false, 0.0, 0, 2, 0.0}}},
                  make_error(0, "circuit 9 not found", "not_found")};
    return {
        make_error(101, "wire: bad number"),
        make_error(102, golden_text, "quota"),
        {103, true,
         load_circuit_response{0, "S1", 32, 1, 90, 180,
                               std::numeric_limits<std::uint64_t>::max()}},
        {104, true, test_length_response{2, 7, true, 0.0,
                                         {true, 123456.75, 40, 1, 1e-12}}},
        {105, true, opt},
        {106, true, fault_sim_response{1, 8, false, 3.25, 4096, 180, 179,
                                       0.99444444444444447}},
        {107, true, mx},
        {108, true, bare},
        {109, true, full},
        {110, true, evict_response{4, 2}},
        {111, true, shutdown_response{}},
        {112, true, register_circuit_response{"acme", "alu", 3, 30, 8, 2, 40}},
        {113, true, reload_circuit_response{"acme", "alu", 3, 31, 30, 1}},
        {114, true,
         list_circuits_response{{{"acme", "alu", 3, 31, true, 1},
                                 {golden_text, "x", 4, 0, false, 0}}}},
        {115, true, list_circuits_response{}},
    };
}

// The canonical encoding of every kind is pinned byte for byte against
// tests/golden/wire_kinds.golden, and every golden line survives
// decode + encode unchanged. On a mismatch the fresh lines are written to
// wire_kinds.actual in the working directory; the golden changes only
// with a deliberate wire-format change.
TEST(wire_golden, every_kind_matches_golden_bytes) {
    const std::vector<request> qs = golden_requests();
    const std::vector<response> rs = golden_responses();
    std::string actual;
    for (const request& q : qs) actual += encode(q) + "\n";
    for (const response& r : rs) actual += encode(r) + "\n";

    std::ifstream in(WRPT_GOLDEN_DIR "/wire_kinds.golden", std::ios::binary);
    const std::string golden{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
    if (actual != golden) {
        std::ofstream("wire_kinds.actual", std::ios::binary) << actual;
        FAIL() << "canonical wire bytes moved; fresh lines written to "
                  "wire_kinds.actual\n--- golden\n"
               << golden << "--- actual\n"
               << actual;
    }

    std::istringstream lines(golden);
    std::string line;
    for (std::size_t i = 0; std::getline(lines, line); ++i) {
        const std::string again = i < qs.size()
                                      ? encode(decode_request(line))
                                      : encode(decode_response(line));
        EXPECT_EQ(again, line) << "golden line " << i + 1;
    }
}

}  // namespace
}  // namespace wrpt::svc
