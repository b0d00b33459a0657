// Tests for the unified service API: lossless JSON wire round-trips of
// every request/response kind (including error envelopes, NaN/inf
// rejection and unknown-field tolerance), the service facade's result
// cache (hits asserted via the stats request, bit-identity against
// direct batch_session calls), the stored bytes cache hits are encoded
// from, and the evict request.

#include "svc/service.h"

#include <bit>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "exec/batch_session.h"
#include "exec/engine_pool.h"
#include "gen/comparator.h"
#include "gen/sharded.h"
#include "io/bench_io.h"
#include "svc/schema.h"
#include "svc/wire.h"
#include "util/rng.h"

namespace wrpt {
namespace {

using namespace wrpt::svc;

// encode -> decode -> encode must reproduce the first encoding byte for
// byte: the encoder is canonical and the decoder lossless.
void expect_request_roundtrip(const request& q) {
    const std::string wire1 = encode(q);
    const request back = decode_request(wire1);
    EXPECT_EQ(back.id, q.id);
    EXPECT_EQ(back.kind(), q.kind());
    EXPECT_EQ(encode(back), wire1);
}

void expect_response_roundtrip(const response& r) {
    const std::string wire1 = encode(r);
    const response back = decode_response(wire1);
    EXPECT_EQ(back.id, r.id);
    EXPECT_EQ(back.ok, r.ok);
    EXPECT_EQ(back.kind(), r.kind());
    EXPECT_EQ(encode(back), wire1);
}

TEST(wire, every_request_kind_round_trips_byte_for_byte) {
    request load;
    load.id = 1;
    load_circuit_request lp;
    lp.name = "cmp";
    lp.bench = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n";
    lp.path = "";
    lp.suite = "";
    load.payload = lp;
    expect_request_roundtrip(load);

    request length;
    length.id = 2;
    test_length_request tp;
    tp.circuit = 3;
    tp.weights = {0.1, 0.25, 1.0 / 3.0, 0.95};
    tp.confidence = 0.9995;
    tp.threads = 8;
    length.payload = tp;
    expect_request_roundtrip(length);

    request optimize;
    optimize.id = 3;
    optimize_request op;
    op.circuit = 1;
    op.weights = {0.5, 0.5};
    op.options.confidence = 0.99;
    op.options.alpha = 0.125;
    op.options.max_sweeps = 7;
    op.options.grid = 0.0;
    op.options.saddle_escape = false;
    op.options.prepare_block = SIZE_MAX;  // the sentinel must survive
    op.options.threads = 4;
    optimize.payload = op;
    expect_request_roundtrip(optimize);
    const auto decoded =
        std::get<optimize_request>(decode_request(encode(optimize)).payload);
    EXPECT_EQ(decoded.options.prepare_block, SIZE_MAX);
    EXPECT_EQ(decoded.options.max_sweeps, 7u);
    EXPECT_FALSE(decoded.options.saddle_escape);

    request sim;
    sim.id = 4;
    fault_sim_request sp;
    sp.circuit = 2;
    sp.weights = {0.05, 0.95};
    sp.patterns = 1u << 20;
    sp.seed = 0xdeadbeefcafeULL;
    sim.payload = sp;
    expect_request_roundtrip(sim);

    request matrix;
    matrix.id = 5;
    matrix_request mp;
    mp.kind = job_kind::optimize;
    mp.circuits = {0, 2, 5};
    mp.weight_sets = {{0.5, 0.5}, {}, {0.1, 0.9}};
    mp.options.max_sweeps = 3;
    mp.patterns = 128;
    mp.seed = 7;
    mp.confidence = 0.999;
    matrix.payload = mp;
    expect_request_roundtrip(matrix);

    request stats;
    stats.id = 6;
    stats.payload = stats_request{};
    expect_request_roundtrip(stats);

    request evict;
    evict.id = 7;
    evict_request ep;
    ep.all = false;
    ep.circuit = 4;
    ep.keep_engines = 2;
    evict.payload = ep;
    expect_request_roundtrip(evict);

    request shutdown;
    shutdown.id = 8;
    shutdown.payload = shutdown_request{};
    expect_request_roundtrip(shutdown);
}

TEST(wire, every_response_kind_round_trips_byte_for_byte) {
    expect_response_roundtrip(make_error(9, "bad circuit handle 7"));

    response load;
    load.id = 1;
    load_circuit_response lr;
    lr.circuit = 0;
    lr.name = "cmp\"quoted\"\nline";  // escaping must survive
    lr.inputs = 8;
    lr.outputs = 3;
    lr.gates = 54;
    lr.faults = 130;
    lr.revision = 0xffffffffffffffffULL;  // u64 precision must survive
    load.payload = lr;
    expect_response_roundtrip(load);
    const auto lback =
        std::get<load_circuit_response>(decode_response(encode(load)).payload);
    EXPECT_EQ(lback.revision, 0xffffffffffffffffULL);
    EXPECT_EQ(lback.name, lr.name);

    response length;
    length.id = 2;
    test_length_response tr;
    tr.circuit = 1;
    tr.revision = 42;
    tr.cached = true;
    tr.elapsed_ms = 0.0;
    tr.length = {true, 1234.5678, 96, 2, 0.00123456789012345};
    length.payload = tr;
    expect_response_roundtrip(length);

    response optimize;
    optimize.id = 3;
    optimize_response orr;
    orr.circuit = 0;
    orr.revision = 7;
    orr.cached = false;
    orr.elapsed_ms = 12.5;
    orr.feasible = true;
    orr.initial_length = 5000.25;
    orr.final_length = 1000.125;
    orr.sweeps = 6;
    orr.analysis_calls = 19;
    orr.zero_prob_faults = 0;
    orr.weights = {0.05, 0.5, 0.95, 0.3000000000000001};
    orr.length = {true, 1000.125, 88, 0, 0.004};
    optimize.payload = orr;
    expect_response_roundtrip(optimize);
    const auto oback =
        std::get<optimize_response>(decode_response(encode(optimize)).payload);
    EXPECT_EQ(oback.weights, orr.weights);  // exact doubles, not approximate

    response sim;
    sim.id = 4;
    fault_sim_response sr;
    sr.circuit = 2;
    sr.revision = 40;
    sr.cached = false;
    sr.elapsed_ms = 3.25;
    sr.patterns = 4096;
    sr.faults = 130;
    sr.detected = 127;
    sr.coverage = 97.69230769230769;
    sim.payload = sr;
    expect_response_roundtrip(sim);

    response matrix;
    matrix.id = 5;
    matrix_response mr;
    mr.results.push_back(length);
    mr.results.push_back(make_error(5, "weight count mismatch"));
    matrix.payload = mr;
    expect_response_roundtrip(matrix);
    const auto mback =
        std::get<matrix_response>(decode_response(encode(matrix)).payload);
    ASSERT_EQ(mback.results.size(), 2u);
    EXPECT_FALSE(mback.results[1].ok);

    response stats;
    stats.id = 6;
    stats_response str;
    str.requests = 12;
    str.cache_hits = 3;
    str.cache_misses = 5;
    str.cache_entries = 4;
    str.cache_evictions = 1;
    str.circuits = 2;
    str.pools.push_back({0, 41, 3, 2, 4, 10, 3, 5, 1});
    str.pools.push_back({1, 42, 1, 1, 0, 2, 1, 0, 0});
    stats.payload = str;
    expect_response_roundtrip(stats);

    response evict;
    evict.id = 7;
    evict.payload = evict_response{3, 2};
    expect_response_roundtrip(evict);

    response shutdown;
    shutdown.id = 8;
    shutdown.payload = shutdown_response{};
    expect_response_roundtrip(shutdown);
}

TEST(wire, registry_request_kinds_round_trip_byte_for_byte) {
    request reg;
    reg.id = 20;
    register_circuit_request rp;
    rp.tenant = "acme";
    rp.name = "alu/v2";  // names may contain '/', tenants may not
    rp.bench = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n";
    reg.payload = rp;
    expect_request_roundtrip(reg);

    request rel;
    rel.id = 21;
    reload_circuit_request lp;
    lp.tenant = "acme";
    lp.name = "alu/v2";
    lp.suite = "S1";
    rel.payload = lp;
    expect_request_roundtrip(rel);

    request list;
    list.id = 22;
    list.payload = list_circuits_request{"acme"};
    expect_request_roundtrip(list);
    request list_all;
    list_all.payload = list_circuits_request{};
    expect_request_roundtrip(list_all);

    // Named jobs: the "name" field rides every job kind and survives.
    request named;
    named.id = 23;
    test_length_request tp;
    tp.name = "acme/alu/v2";
    tp.confidence = 0.99;
    named.payload = tp;
    expect_request_roundtrip(named);
    EXPECT_EQ(std::get<test_length_request>(
                  decode_request(encode(named)).payload)
                  .name,
              "acme/alu/v2");
}

TEST(wire, registry_response_kinds_round_trip_byte_for_byte) {
    response reg;
    reg.id = 20;
    register_circuit_response rr;
    rr.tenant = "acme";
    rr.name = "alu/v2";
    rr.circuit = 3;
    rr.revision = 99;
    rr.inputs = 8;
    rr.outputs = 2;
    rr.gates = 40;
    reg.payload = rr;
    expect_response_roundtrip(reg);

    response rel;
    rel.id = 21;
    reload_circuit_response lr;
    lr.tenant = "acme";
    lr.name = "alu/v2";
    lr.circuit = 3;
    lr.revision = 100;
    lr.old_revision = 99;
    lr.reloads = 7;
    rel.payload = lr;
    expect_response_roundtrip(rel);
    const auto lback = std::get<reload_circuit_response>(
        decode_response(encode(rel)).payload);
    EXPECT_EQ(lback.old_revision, 99u);
    EXPECT_EQ(lback.reloads, 7u);

    response list;
    list.id = 22;
    list_circuits_response cr;
    cr.entries.push_back({"acme", "alu/v2", 3, 100, true, 7});
    cr.entries.push_back({"zeta", "mul", 4, 5, false, 0});
    list.payload = cr;
    expect_response_roundtrip(list);

    // Typed error envelopes keep their code; untyped ones encode exactly
    // as before the code field existed.
    expect_response_roundtrip(
        make_error(23, "tenant 'acme' is at its circuit quota (2)", "quota"));
    const std::string untyped = encode(make_error(24, "boom"));
    EXPECT_EQ(untyped.find("\"code\""), std::string::npos);
    expect_response_roundtrip(make_error(24, "boom"));

    // A stats response with the registry section present.
    response stats;
    stats_response sr;
    sr.requests = 3;
    sr.circuits = 1;
    sr.registry.present = true;
    sr.registry.circuits = 1000;
    sr.registry.resident = 32;
    sr.registry.max_views = 32;
    sr.registry.view_evictions = 68;
    sr.registry.view_rebuilds = 100;
    sr.registry.tenants.push_back({"acme", 2, 4096, 2, 1, 65536, 5});
    stats.payload = sr;
    expect_response_roundtrip(stats);
    // ...and absent from the wire when no circuit was ever registered, so
    // pre-registry transcripts stay byte-identical.
    response bare;
    bare.payload = stats_response{};
    EXPECT_EQ(encode(bare).find("\"registry\""), std::string::npos);
    expect_response_roundtrip(bare);
}

TEST(wire, fuzzed_weight_vectors_survive_the_trip_losslessly) {
    rng r(0x5eed);
    for (int trial = 0; trial < 50; ++trial) {
        request q;
        q.id = static_cast<std::uint64_t>(trial);
        test_length_request p;
        p.circuit = trial;
        const std::size_t n = 1 + (r.next_word() % 40);
        for (std::size_t i = 0; i < n; ++i)
            p.weights.push_back(
                static_cast<double>(r.next_word()) * 0x1p-64);
        q.payload = p;
        const request back = decode_request(encode(q));
        EXPECT_EQ(std::get<test_length_request>(back.payload).weights,
                  p.weights);
        EXPECT_EQ(encode(back), encode(q));
    }
}

TEST(wire, decoder_tolerates_unknown_fields) {
    const request q = decode_request(
        R"({"req":"test_length","id":9,"circuit":1,"weights":[0.5],)"
        R"("confidence":0.99,"threads":2,)"
        R"("future_knob":{"nested":[1,2,{"deep":true}]},"comment":"hi"})");
    EXPECT_EQ(q.id, 9u);
    const auto& p = std::get<test_length_request>(q.payload);
    EXPECT_EQ(p.circuit, 1u);
    EXPECT_EQ(p.weights, (weight_vector{0.5}));
    EXPECT_EQ(p.confidence, 0.99);
    EXPECT_EQ(p.threads, 2u);
}

// --- decoder semantics -------------------------------------------------------
//
// What the decoder accepts beyond the canonical encoding: key order,
// unknown and duplicate keys, missing keys, escapes, nesting depth.

TEST(wire, the_kind_may_follow_the_payload_fields) {
    const request q = decode_request(
        R"({"weights":[0.25,0.75],"threads":3,"circuit":4,"id":7,)"
        R"("req":"test_length"})");
    EXPECT_EQ(q.id, 7u);
    const auto& p = std::get<test_length_request>(q.payload);
    EXPECT_EQ(p.circuit, 4u);
    EXPECT_EQ(p.weights, (weight_vector{0.25, 0.75}));
    EXPECT_EQ(p.threads, 3u);
    const response r = decode_response(
        R"({"weights":[0.5],"resp":"optimize","ok":true,"id":2})");
    EXPECT_EQ(std::get<optimize_response>(r.payload).weights,
              (weight_vector{0.5}));
    // Keys are compared after unescaping.
    EXPECT_EQ(decode_request(R"({"\u0069d":6,"req":"stats"})").id, 6u);
}

TEST(wire, unknown_keys_holding_nested_values_are_skipped) {
    const request q = decode_request(
        R"({"req":"optimize","skip":{"a":[1,{"b":[[],{}]}],"c":"é"},)"
        R"("id":5,"also":[{"x":null},[true,false,-1.5e3]],)"
        R"("options":{"unknown":{"deep":[{}]},"max_sweeps":4}})");
    EXPECT_EQ(q.id, 5u);
    EXPECT_EQ(std::get<optimize_request>(q.payload).options.max_sweeps, 4u);
}

TEST(wire, the_first_of_duplicate_keys_wins) {
    const auto p = std::get<test_length_request>(
        decode_request(R"({"req":"test_length","id":1,)"
                       R"("confidence":0.95,"confidence":"x"})")
            .payload);
    EXPECT_EQ(p.confidence, 0.95);
    EXPECT_EQ(decode_request(R"({"req":"stats","id":3,"id":4})").id, 3u);
    EXPECT_EQ(decode_request(R"({"req":"stats","req":"bogus","id":1})").kind(),
              request_kind::stats);
}

TEST(wire, missing_keys_keep_their_defaults) {
    const request q = decode_request(R"({"req":"fault_sim"})");
    EXPECT_EQ(q.id, 0u);
    const auto& f = std::get<fault_sim_request>(q.payload);
    EXPECT_EQ(f.circuit, 0u);
    EXPECT_TRUE(f.name.empty());
    EXPECT_TRUE(f.weights.empty());
    EXPECT_EQ(f.patterns, 4096u);
    EXPECT_EQ(f.seed, 1u);

    const auto o = std::get<optimize_request>(
        decode_request(R"({"req":"optimize","options":{"alpha":0.25}})")
            .payload);
    const optimize_options defaults;
    EXPECT_EQ(o.options.alpha, 0.25);
    EXPECT_EQ(o.options.confidence, defaults.confidence);
    EXPECT_EQ(o.options.max_sweeps, defaults.max_sweeps);
    EXPECT_EQ(o.options.prepare_block, defaults.prepare_block);
    EXPECT_EQ(o.options.saddle_escape, defaults.saddle_escape);
}

TEST(wire, an_escaped_surrogate_pair_in_a_name_decodes_to_utf8) {
    const request q = decode_request(
        R"({"req":"load_circuit","id":1,"name":"a\ud83d\ude00\n\u00e9b",)"
        R"("suite":"S1"})");
    EXPECT_EQ(std::get<load_circuit_request>(q.payload).name,
              "a\xF0\x9F\x98\x80\n\xC3\xA9"
              "b");
}

TEST(wire, nesting_is_capped_at_64_levels_even_under_unknown_keys) {
    // The enclosing object is level 1, so 63 arrays fit under a key and
    // a 64th (65 levels in all) is refused.
    const auto nested = [](int levels) {
        std::string line = R"({"req":"stats","id":1,"x":)";
        line += std::string(static_cast<std::size_t>(levels), '[');
        line += std::string(static_cast<std::size_t>(levels), ']');
        return line + "}";
    };
    EXPECT_EQ(decode_request(nested(63)).id, 1u);
    EXPECT_THROW(decode_request(nested(64)), wire_error);
    EXPECT_THROW(decode_request(nested(65)), wire_error);
}

TEST(wire, a_wide_weight_vector_round_trips_byte_for_byte) {
    rng r(2688);
    test_length_request p;
    p.circuit = 1;
    for (std::size_t i = 0; i < 2688; ++i)
        p.weights.push_back(static_cast<double>(r.next_word()) * 0x1p-64);
    p.weights[0] = 5e-324;
    p.weights[1] = -0.0;
    p.weights[2] = 1.0;
    p.weights[3] = 0.1;
    request q;
    q.id = 11;
    q.payload = p;
    const std::string line = encode(q);
    EXPECT_NE(line.find("[5e-324,-0,1,0.1,"), std::string::npos);
    const request back = decode_request(line);
    const auto& w = std::get<test_length_request>(back.payload).weights;
    ASSERT_EQ(w.size(), p.weights.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(w[i]),
                  std::bit_cast<std::uint64_t>(p.weights[i]));
    EXPECT_EQ(encode(back), line);
}

TEST(wire, rejects_malformed_and_non_finite_input) {
    EXPECT_THROW(decode_request("not json"), wire_error);
    EXPECT_THROW(decode_request("{\"req\":\"optimize\",..."), wire_error);
    EXPECT_THROW(decode_request(R"({"id":1})"), wire_error);  // no kind
    EXPECT_THROW(decode_request(R"({"req":"warp_core","id":1})"), wire_error);
    // JSON has no NaN/Infinity tokens, and overflowing literals must not
    // sneak a non-finite weight through.
    EXPECT_THROW(
        decode_request(R"({"req":"test_length","id":1,"weights":[NaN]})"),
        wire_error);
    EXPECT_THROW(
        decode_request(
            R"({"req":"test_length","id":1,"weights":[Infinity]})"),
        wire_error);
    EXPECT_THROW(
        decode_request(R"({"req":"test_length","id":1,"weights":[1e999]})"),
        wire_error);
    // Only RFC 8259 numbers, wherever they stand: std::from_chars alone
    // would take a leading zero, a bare point or a point without digits.
    for (const char* number :
         {"01", "-01", "00", ".95", "-.5", "1.", "1.e5", "-", "+1", "1e",
          "1e+", "1.5.2", "0x10", "1e5e5", "1-2"}) {
        const std::string tail = std::string(number) + "}";
        EXPECT_THROW(decode_request(R"({"req":"test_length","id":)" + tail),
                     wire_error)
            << number;
        EXPECT_THROW(
            decode_request(R"({"req":"test_length","confidence":)" + tail),
            wire_error)
            << number;
        EXPECT_THROW(decode_request(R"({"req":"stats","x":[)" +
                                    std::string(number) + "]}"),
                     wire_error)
            << number;
    }
    for (const char* number : {"0", "-0", "0.5", "1e5", "1E+5", "2.5e-3",
                               "-0.0e-0", "123"}) {
        const std::string line =
            R"({"req":"stats","id":1,"x":)" + std::string(number) + "}";
        EXPECT_EQ(decode_request(line).id, 1u) << number;
    }
    // Narrowing integers are range-checked, not truncated: 2^32 + 1
    // threads must not decode as 1.
    EXPECT_THROW(
        decode_request(R"({"req":"test_length","id":1,"threads":4294967297})"),
        wire_error);
    EXPECT_THROW(
        decode_request(
            R"({"req":"optimize","id":1,"options":{"threads":4294967297}})"),
        wire_error);
    EXPECT_EQ(std::get<test_length_request>(
                  decode_request(
                      R"({"req":"test_length","id":1,"threads":4294967295})")
                      .payload)
                  .threads,
              4294967295u);
    // Every string field is type-checked, simd_isa included.
    EXPECT_THROW(
        decode_response(R"({"id":1,"ok":true,"resp":"stats","simd_isa":7})"),
        wire_error);
    // Encoding a non-finite value is refused too.
    request q;
    test_length_request p;
    p.weights = {std::numeric_limits<double>::quiet_NaN()};
    q.payload = p;
    EXPECT_THROW(encode(q), wire_error);
}

TEST(wire, surrogate_pairs_combine_into_utf8_and_unpaired_ones_fail) {
    const request q = decode_request(
        R"({"req":"load_circuit","id":1,"name":"😀","suite":"S1"})");
    // U+1F600 as proper 4-byte UTF-8, not a CESU-8 surrogate pair.
    EXPECT_EQ(std::get<load_circuit_request>(q.payload).name,
              "\xF0\x9F\x98\x80");
    // The raw UTF-8 re-encoding still round-trips.
    EXPECT_EQ(encode(decode_request(encode(q))), encode(q));

    EXPECT_THROW(
        decode_request(R"({"req":"stats","id":1,"x":"\ud83d"})"), wire_error);
    EXPECT_THROW(
        decode_request(R"({"req":"stats","id":1,"x":"\ude00"})"), wire_error);
    EXPECT_THROW(
        decode_request(R"({"req":"stats","id":1,"x":"\ud83dA"})"),
        wire_error);
}

TEST(wire, deeply_nested_input_fails_cleanly_instead_of_crashing) {
    // A hostile line must produce a wire_error envelope, not a blown
    // stack in the long-lived daemon.
    const std::string bomb(300000, '[');
    EXPECT_THROW(decode_request(bomb), wire_error);
    EXPECT_EQ(extract_id(bomb), 0u);  // best-effort path survives too
    // Legitimate nesting (a matrix response nests three object levels)
    // stays well under the cap.
    std::string deep = R"({"req":"stats","id":1,"x":)";
    for (int i = 0; i < 40; ++i) deep += "[";
    for (int i = 0; i < 40; ++i) deep += "]";
    deep += "}";
    EXPECT_EQ(decode_request(deep).id, 1u);
}

TEST(wire, extract_id_recovers_ids_from_broken_lines) {
    EXPECT_EQ(extract_id(R"({"req":"stats","id":41})"), 41u);
    EXPECT_EQ(extract_id(R"({"req":"optimize","id":7,"truncated)"), 7u);
    EXPECT_EQ(extract_id("garbage"), 0u);
}

TEST(wire, a_response_with_hit_bytes_is_written_from_them) {
    // The stored bytes win over the payload: whoever edits a hit's payload
    // must drop them first.
    response r;
    r.id = 42;
    r.payload = evict_response{1, 2};
    r.hit_bytes = std::make_shared<const std::string>(",\"stored\":true}");
    EXPECT_EQ(encode(r), R"({"id":42,"stored":true})");
    matrix_response m;
    m.results = {r, r};
    m.results[1].hit_bytes.reset();
    response outer;
    outer.id = 7;
    outer.payload = std::move(m);
    std::string out;
    encode_into(outer, out);
    EXPECT_EQ(out, R"({"id":7,"ok":true,"resp":"matrix","results":[)"
                   R"({"id":42,"stored":true},)"
                   R"({"id":42,"ok":true,"resp":"evict","cache_entries":1,)"
                   R"("engines":2}]})");
}

// --- service facade ---------------------------------------------------------

std::size_t load_comparator(service& s, const std::string& name) {
    request q;
    load_circuit_request p;
    p.name = name;
    p.bench = write_bench_string(make_cascaded_comparator(2, name));
    q.payload = std::move(p);
    const response r = s.handle(q);
    EXPECT_TRUE(r.ok);
    const auto& out = std::get<load_circuit_response>(r.payload);
    EXPECT_EQ(out.name, name);
    EXPECT_GT(out.inputs, 0u);
    EXPECT_GT(out.faults, 0u);
    return out.circuit;
}

optimize_options fast_options() {
    optimize_options oo;
    oo.max_sweeps = 3;
    return oo;
}

TEST(service, repeated_optimize_is_answered_from_the_result_cache) {
    service s;
    const std::size_t c = load_comparator(s, "svc_cmp");

    request q;
    q.id = 10;
    optimize_request p;
    p.circuit = c;
    p.options = fast_options();
    q.payload = p;

    const response first = s.handle(q);
    ASSERT_TRUE(first.ok);
    const auto& r1 = std::get<optimize_response>(first.payload);
    EXPECT_FALSE(r1.cached);
    EXPECT_TRUE(r1.feasible);
    EXPECT_FALSE(r1.weights.empty());

    q.id = 11;
    const response second = s.handle(q);
    ASSERT_TRUE(second.ok);
    const auto& r2 = std::get<optimize_response>(second.payload);
    EXPECT_TRUE(r2.cached);
    EXPECT_EQ(second.id, 11u);  // the envelope echoes the new request id
    // Bit-identical replay: the full weight vector and both lengths.
    EXPECT_EQ(r2.weights, r1.weights);
    EXPECT_EQ(r2.final_length, r1.final_length);
    EXPECT_EQ(r2.initial_length, r1.initial_length);
    EXPECT_EQ(r2.elapsed_ms, 0.0);  // the hit costs nothing

    // The stats request is the observable contract for the hit.
    request sq;
    sq.id = 12;
    sq.payload = stats_request{};
    const response stats = s.handle(sq);
    ASSERT_TRUE(stats.ok);
    const auto& st = std::get<stats_response>(stats.payload);
    EXPECT_EQ(st.cache_hits, 1u);
    EXPECT_EQ(st.cache_misses, 1u);
    EXPECT_EQ(st.cache_entries, 1u);
    EXPECT_EQ(st.circuits, 1u);
    ASSERT_EQ(st.pools.size(), 1u);
    EXPECT_EQ(st.pools[0].circuit, c);
    EXPECT_EQ(st.pools[0].revision, s.session().circuit(c).revision());
}

TEST(service, cached_weights_are_bit_identical_to_direct_batch_session) {
    const std::string bench =
        write_bench_string(make_cascaded_comparator(2, "svc_direct"));

    // Direct path: the pre-svc engine layer.
    batch_session session;
    const std::size_t direct =
        session.add_circuit(read_bench_string(bench, "svc_direct"));
    svc::optimize_request p;
    p.circuit = direct;
    p.options = fast_options();
    const auto direct_results = session.run({svc::job_request{p}});
    ASSERT_EQ(direct_results.size(), 1u);

    // Served path, twice: the second answer comes from the cache.
    service s;
    request lq;
    load_circuit_request lp;
    lp.bench = bench;
    lq.payload = std::move(lp);
    const response lr = s.handle(lq);
    ASSERT_TRUE(lr.ok);
    request q;
    optimize_request op;
    op.circuit = std::get<load_circuit_response>(lr.payload).circuit;
    op.options = fast_options();
    q.payload = op;
    const response uncached = s.handle(q);
    const response cached = s.handle(q);
    ASSERT_TRUE(uncached.ok);
    ASSERT_TRUE(cached.ok);
    const auto& ru = std::get<optimize_response>(uncached.payload);
    const auto& rc = std::get<optimize_response>(cached.payload);
    EXPECT_FALSE(ru.cached);
    EXPECT_TRUE(rc.cached);

    // Same circuit text, same options: all three answers carry the exact
    // same optimized vector and test lengths.
    EXPECT_EQ(ru.weights, direct_results[0].optimized.weights);
    EXPECT_EQ(rc.weights, direct_results[0].optimized.weights);
    EXPECT_EQ(ru.final_length,
              direct_results[0].optimized.final_test_length);
    EXPECT_EQ(ru.length.test_length, direct_results[0].length.test_length);
}

TEST(service, empty_weights_and_explicit_uniform_share_a_cache_entry) {
    service s;
    const std::size_t c = load_comparator(s, "svc_uniform");

    request q1;
    test_length_request p1;
    p1.circuit = c;  // empty weights = uniform shorthand
    q1.payload = p1;
    const response r1 = s.handle(q1);
    ASSERT_TRUE(r1.ok);
    EXPECT_FALSE(std::get<test_length_response>(r1.payload).cached);

    request q2;
    test_length_request p2;
    p2.circuit = c;
    p2.weights = uniform_weights(s.session().circuit(c));
    q2.payload = p2;
    const response r2 = s.handle(q2);
    ASSERT_TRUE(r2.ok);
    EXPECT_TRUE(std::get<test_length_response>(r2.payload).cached);
    EXPECT_EQ(std::get<test_length_response>(r2.payload).length.test_length,
              std::get<test_length_response>(r1.payload).length.test_length);
}

TEST(service, different_options_or_kinds_do_not_alias_in_the_cache) {
    service s;
    const std::size_t c = load_comparator(s, "svc_alias");

    request q1;
    test_length_request p1;
    p1.circuit = c;
    p1.confidence = 0.999;
    q1.payload = p1;
    ASSERT_TRUE(s.handle(q1).ok);

    // Same kind, different confidence: a miss, and a different answer.
    request q2;
    test_length_request p2;
    p2.circuit = c;
    p2.confidence = 0.9;
    q2.payload = p2;
    const response r2 = s.handle(q2);
    ASSERT_TRUE(r2.ok);
    EXPECT_FALSE(std::get<test_length_response>(r2.payload).cached);

    // Same weights, different kind (fault_sim): also a miss.
    request q3;
    fault_sim_request p3;
    p3.circuit = c;
    p3.patterns = 256;
    q3.payload = p3;
    const response r3 = s.handle(q3);
    ASSERT_TRUE(r3.ok);
    EXPECT_FALSE(std::get<fault_sim_response>(r3.payload).cached);

    request sq;
    sq.payload = stats_request{};
    const auto st = std::get<stats_response>(s.handle(sq).payload);
    EXPECT_EQ(st.cache_hits, 0u);
    EXPECT_EQ(st.cache_misses, 3u);
    EXPECT_EQ(st.cache_entries, 3u);
}

TEST(service, evict_clears_the_cache_and_trims_the_pools) {
    service s;
    const std::size_t c = load_comparator(s, "svc_evict");

    request q;
    test_length_request p;
    p.circuit = c;
    q.payload = p;
    ASSERT_TRUE(s.handle(q).ok);
    EXPECT_TRUE(std::get<test_length_response>(s.handle(q).payload).cached);

    // Park a warm engine in the circuit's pool (the tiny comparator's
    // estimator may legitimately answer without engines, so plant one).
    {
        engine_pool::lease lease = s.session().pool(c).checkout(
            uniform_weights(s.session().circuit(c)));
    }
    ASSERT_GT(s.session().pool(c).warm_count(), 0u);

    request eq;
    evict_request ep;
    ep.all = false;
    ep.circuit = c;
    eq.payload = ep;
    const response er = s.handle(eq);
    ASSERT_TRUE(er.ok);
    const auto& ev = std::get<evict_response>(er.payload);
    EXPECT_EQ(ev.cache_entries, 1u);
    EXPECT_GT(ev.engines, 0u);  // the planted warm engine is dropped
    EXPECT_EQ(s.session().pool(c).warm_count(), 0u);

    // After eviction the same query recomputes...
    const response again = s.handle(q);
    ASSERT_TRUE(again.ok);
    EXPECT_FALSE(std::get<test_length_response>(again.payload).cached);

    // ...and the pool eviction shows up in the stats payload.
    request sq;
    sq.payload = stats_request{};
    const auto st = std::get<stats_response>(s.handle(sq).payload);
    ASSERT_EQ(st.pools.size(), 1u);
    EXPECT_GT(st.pools[0].evictions, 0u);
    EXPECT_GT(st.cache_evictions, 0u);
}

TEST(service, matrix_requests_answer_per_entry_with_error_envelopes) {
    service s;
    const std::size_t a = load_comparator(s, "svc_mat_a");
    const std::size_t b = load_comparator(s, "svc_mat_b");

    request q;
    q.id = 77;
    matrix_request m;
    m.kind = job_kind::test_length;
    m.circuits = {a, b, 99};  // the last handle does not exist
    m.weight_sets = {weight_vector{}};
    q.payload = std::move(m);
    const response r = s.handle(q);
    ASSERT_TRUE(r.ok);
    const auto& mr = std::get<matrix_response>(r.payload);
    ASSERT_EQ(mr.results.size(), 3u);
    EXPECT_TRUE(mr.results[0].ok);
    EXPECT_TRUE(mr.results[1].ok);
    EXPECT_FALSE(mr.results[2].ok);  // per-entry envelope, not a dead batch
    EXPECT_EQ(mr.results[2].id, 77u);

    // The two valid answers match individual requests exactly.
    request single;
    test_length_request p;
    p.circuit = a;
    single.payload = p;
    const auto direct =
        std::get<test_length_response>(s.handle(single).payload);
    EXPECT_TRUE(direct.cached);  // matrix already populated the cache
    EXPECT_EQ(direct.length.test_length,
              std::get<test_length_response>(mr.results[0].payload)
                  .length.test_length);
}

TEST(service, fault_sim_patterns_are_bounded) {
    service s;
    const std::size_t c = load_comparator(s, "svc_patterns");

    // A single job: the budget must lie in [1, 2^20].
    for (const std::uint64_t patterns : {0ull, 1048577ull}) {
        request q;
        fault_sim_request p;
        p.circuit = c;
        p.patterns = patterns;
        q.payload = p;
        const response r = s.handle(q);
        ASSERT_FALSE(r.ok) << patterns;
        EXPECT_EQ(std::get<error_response>(r.payload).message,
                  "patterns must lie in [1,1048576]");
    }
    request q;
    fault_sim_request p;
    p.circuit = c;
    p.patterns = 1048576;
    q.payload = p;
    const response ok = s.handle(q);
    ASSERT_TRUE(ok.ok);
    const auto& sim = std::get<fault_sim_response>(ok.payload);
    // The comparator is fully random testable: dropping ends the run early.
    EXPECT_EQ(sim.detected, sim.faults);
    EXPECT_LT(sim.patterns, 1048576u);

    // A matrix job: out-of-range budgets are per-entry envelopes.
    for (const std::uint64_t patterns : {0ull, 1048577ull, 1048576ull}) {
        request mq;
        matrix_request m;
        m.kind = job_kind::fault_sim;
        m.circuits = {c};
        m.weight_sets = {weight_vector{}};
        m.patterns = patterns;
        mq.payload = std::move(m);
        const response r = s.handle(mq);
        ASSERT_TRUE(r.ok);
        const auto& mr = std::get<matrix_response>(r.payload);
        ASSERT_EQ(mr.results.size(), 1u);
        if (patterns == 1048576) {
            ASSERT_TRUE(mr.results[0].ok);
            EXPECT_LT(std::get<fault_sim_response>(mr.results[0].payload)
                          .patterns,
                      1048576u);
        } else {
            ASSERT_FALSE(mr.results[0].ok) << patterns;
            EXPECT_EQ(std::get<error_response>(mr.results[0].payload).message,
                      "patterns must lie in [1,1048576]");
        }
    }
}

TEST(wire, evict_without_all_field_defaults_to_per_circuit) {
    // Naming a circuit but omitting "all" must NOT wipe the daemon.
    const auto scoped = std::get<evict_request>(
        decode_request(R"({"req":"evict","id":1,"circuit":2})").payload);
    EXPECT_FALSE(scoped.all);
    EXPECT_EQ(scoped.circuit, 2u);
    // No circuit named: a global evict, as before.
    const auto global = std::get<evict_request>(
        decode_request(R"({"req":"evict","id":2})").payload);
    EXPECT_TRUE(global.all);
    // Explicit "all":true with a circuit still wins.
    const auto forced = std::get<evict_request>(
        decode_request(R"({"req":"evict","id":3,"all":true,"circuit":2})")
            .payload);
    EXPECT_TRUE(forced.all);
}

TEST(service, copied_circuits_sharing_a_revision_do_not_alias) {
    service s;
    // netlist copies keep their source's revision stamp; two handles of
    // the same copied circuit must still cache and evict independently.
    const netlist nl = make_cascaded_comparator(2, "svc_twin");
    const std::size_t a = s.session().add_circuit(nl);
    const std::size_t b = s.session().add_circuit(nl);
    ASSERT_EQ(s.session().circuit(a).revision(),
              s.session().circuit(b).revision());

    request qa;
    test_length_request pa;
    pa.circuit = a;
    qa.payload = pa;
    ASSERT_TRUE(s.handle(qa).ok);

    request qb;
    test_length_request pb;
    pb.circuit = b;
    qb.payload = pb;
    const response rb = s.handle(qb);
    ASSERT_TRUE(rb.ok);
    const auto& out = std::get<test_length_response>(rb.payload);
    EXPECT_FALSE(out.cached);      // b's first query is not a's entry
    EXPECT_EQ(out.circuit, b);     // and reports b's identity

    // Per-circuit evict drops only the named handle's entry.
    request eq;
    evict_request ep;
    ep.all = false;
    ep.circuit = a;
    eq.payload = ep;
    EXPECT_EQ(std::get<evict_response>(s.handle(eq).payload).cache_entries,
              1u);
    EXPECT_TRUE(
        std::get<test_length_response>(s.handle(qb).payload).cached);
}

TEST(service, thread_count_knobs_do_not_fragment_the_cache) {
    service s;
    const std::size_t c = load_comparator(s, "svc_threads");

    request q1;
    test_length_request p1;
    p1.circuit = c;
    p1.threads = 1;
    q1.payload = p1;
    ASSERT_TRUE(s.handle(q1).ok);

    // Same query at a different thread count: results are
    // thread-invariant, so this must hit.
    request q2;
    test_length_request p2;
    p2.circuit = c;
    p2.threads = 2;
    q2.payload = p2;
    EXPECT_TRUE(std::get<test_length_response>(s.handle(q2).payload).cached);

    request q3;
    optimize_request p3;
    p3.circuit = c;
    p3.options = fast_options();
    p3.options.threads = 1;
    q3.payload = p3;
    ASSERT_TRUE(s.handle(q3).ok);
    p3.options.threads = 2;
    q3.payload = p3;
    EXPECT_TRUE(std::get<optimize_response>(s.handle(q3).payload).cached);
}

TEST(service, duplicate_jobs_in_one_matrix_compute_once) {
    service s;
    const std::size_t c = load_comparator(s, "svc_dup");

    request q;
    matrix_request m;
    m.kind = job_kind::test_length;
    m.circuits = {c};
    // The empty shorthand and the explicit uniform vector are the same
    // query: one must compute, the other must ride its result.
    m.weight_sets = {weight_vector{},
                     uniform_weights(s.session().circuit(c))};
    q.payload = std::move(m);
    const response r = s.handle(q);
    ASSERT_TRUE(r.ok);
    const auto& mr = std::get<matrix_response>(r.payload);
    ASSERT_EQ(mr.results.size(), 2u);
    const auto& a = std::get<test_length_response>(mr.results[0].payload);
    const auto& b = std::get<test_length_response>(mr.results[1].payload);
    EXPECT_FALSE(a.cached);
    EXPECT_TRUE(b.cached);
    EXPECT_EQ(a.length.test_length, b.length.test_length);

    request sq;
    sq.payload = stats_request{};
    const auto st = std::get<stats_response>(s.handle(sq).payload);
    EXPECT_EQ(st.cache_misses, 1u);  // computed once, not twice
    EXPECT_EQ(st.cache_hits, 1u);
    EXPECT_EQ(st.cache_entries, 1u);
}

TEST(service, bad_options_get_per_entry_envelopes_in_a_matrix) {
    service s;
    const std::size_t c = load_comparator(s, "svc_badopt");

    request q;
    q.id = 88;
    matrix_request m;
    m.kind = job_kind::test_length;
    m.circuits = {c};
    m.weight_sets = {weight_vector{}};
    m.confidence = 1.5;  // would throw deep inside the pipeline
    q.payload = std::move(m);
    const response r = s.handle(q);
    ASSERT_TRUE(r.ok);  // the matrix envelope survives...
    const auto& mr = std::get<matrix_response>(r.payload);
    ASSERT_EQ(mr.results.size(), 1u);
    EXPECT_FALSE(mr.results[0].ok);  // ...with a per-entry error inside
    EXPECT_NE(std::get<error_response>(mr.results[0].payload)
                  .message.find("confidence"),
              std::string::npos);

    // Bad optimize options are envelopes too, and the service survives.
    request oq;
    optimize_request op;
    op.circuit = c;
    op.options.max_sweeps = 0;
    oq.payload = op;
    EXPECT_FALSE(s.handle(oq).ok);
    op.options = fast_options();
    op.options.weight_min = 0.8;
    op.options.weight_max = 0.2;
    oq.payload = op;
    EXPECT_FALSE(s.handle(oq).ok);
}

TEST(service, bad_requests_become_error_envelopes_not_exceptions) {
    service s;

    // Unknown circuit handle.
    request q;
    q.id = 5;
    test_length_request p;
    p.circuit = 123;
    q.payload = p;
    const response r = s.handle(q);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.id, 5u);
    EXPECT_NE(std::get<error_response>(r.payload).message.find("handle"),
              std::string::npos);

    // Non-finite and out-of-range weights.
    const std::size_t c = load_comparator(s, "svc_bad");
    request q2;
    test_length_request p2;
    p2.circuit = c;
    p2.weights = uniform_weights(s.session().circuit(c));
    p2.weights[0] = std::numeric_limits<double>::infinity();
    q2.payload = p2;
    EXPECT_FALSE(s.handle(q2).ok);
    p2.weights[0] = 1.5;
    q2.payload = p2;
    EXPECT_FALSE(s.handle(q2).ok);

    // Malformed load request (two sources).
    request q3;
    load_circuit_request p3;
    p3.bench = "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n";
    p3.suite = "S1";
    q3.payload = p3;
    EXPECT_FALSE(s.handle(q3).ok);

    // The service is still alive and serving after all of that.
    request sq;
    sq.payload = stats_request{};
    EXPECT_TRUE(s.handle(sq).ok);
}

TEST(service, cache_entry_cap_evicts_oldest_entries_first) {
    service::options so;
    so.max_cache_entries = 2;
    service s(so);
    const std::size_t c = load_comparator(s, "svc_cap");

    auto query = [&](double confidence) {
        request q;
        test_length_request p;
        p.circuit = c;
        p.confidence = confidence;
        q.payload = p;
        return s.handle(q);
    };
    ASSERT_TRUE(query(0.9).ok);
    ASSERT_TRUE(query(0.99).ok);
    ASSERT_TRUE(query(0.999).ok);  // evicts the 0.9 entry

    request sq;
    sq.payload = stats_request{};
    {
        const auto st = std::get<stats_response>(s.handle(sq).payload);
        EXPECT_EQ(st.cache_entries, 2u);
        EXPECT_EQ(st.cache_evictions, 1u);
    }

    // Newest entries still hit; the evicted oldest one recomputes.
    EXPECT_TRUE(
        std::get<test_length_response>(query(0.999).payload).cached);
    EXPECT_TRUE(std::get<test_length_response>(query(0.99).payload).cached);
    EXPECT_FALSE(std::get<test_length_response>(query(0.9).payload).cached);
}

TEST(service, cache_accounting_balances_even_when_jobs_fail) {
    service s;
    const std::size_t c = load_comparator(s, "svc_balance");

    auto stats_of = [&] {
        request sq;
        sq.payload = stats_request{};
        return std::get<stats_response>(s.handle(sq).payload);
    };

    // A job that fails deep in the pipeline (weights of 1e-300 pass
    // request validation, but the test length they imply diverges inside
    // NORMALIZE) was still probed; it must be accounted as a miss, not
    // dropped on the floor.
    request bad;
    matrix_request m;
    m.kind = job_kind::test_length;
    m.circuits = {c};
    // The same doomed query twice: one computes (and fails), the
    // duplicate rides the same failure — both are misses.
    const weight_vector tiny(s.session().circuit(c).input_count(), 1e-300);
    m.weight_sets = {tiny, tiny};
    bad.payload = std::move(m);
    const response r = s.handle(bad);
    ASSERT_TRUE(r.ok);
    const auto& mr = std::get<matrix_response>(r.payload);
    ASSERT_EQ(mr.results.size(), 2u);
    EXPECT_FALSE(mr.results[0].ok);
    EXPECT_FALSE(mr.results[1].ok);
    {
        const auto st = stats_of();
        EXPECT_EQ(st.cache_probes, 2u);
        EXPECT_EQ(st.cache_misses, 2u);
        EXPECT_EQ(st.cache_hits, 0u);
        EXPECT_EQ(st.cache_entries, 0u);  // failures are never cached
    }

    // Mixed successes keep the invariant: probes == hits + misses.
    request good;
    test_length_request p;
    p.circuit = c;
    good.payload = p;
    ASSERT_TRUE(s.handle(good).ok);
    ASSERT_TRUE(s.handle(good).ok);
    const auto st = stats_of();
    EXPECT_EQ(st.cache_probes, st.cache_hits + st.cache_misses);
    EXPECT_EQ(st.cache_probes, 4u);
    EXPECT_EQ(st.cache_hits, 1u);
    EXPECT_EQ(st.cache_misses, 3u);
}

// --- cache-key exactness ----------------------------------------------------

/// The canonical wire encoding of a job after the cache's normalizations:
/// handle and registry name dropped, empty weights written as the explicit
/// uniform vector, thread counts at 1. Two jobs must share a cache entry
/// exactly when these are equal.
template <class P>
std::string normalized_encoding(P p, std::size_t inputs) {
    p.circuit = 0;
    p.name.clear();
    if (p.weights.empty()) p.weights.assign(inputs, 0.5);
    if constexpr (requires { p.threads; }) p.threads = 1;
    if constexpr (requires { p.options.threads; }) p.options.threads = 1;
    request q;
    q.payload = std::move(p);
    return encode(q);
}

/// Moves the `target`-th field of optimize_options by the smallest step
/// its type has: one ulp for a double, one unit for an integer, a flip
/// for a bool.
struct bump_field {
    std::size_t target;
    std::size_t index = 0;

    template <class T>
    void operator()(std::string_view, T& m) {
        if (index++ != target) return;
        if constexpr (std::is_same_v<T, bool>)
            m = !m;
        else if constexpr (std::is_same_v<T, double>)
            m = std::nextafter(m, 1.0);
        else
            m += 1;
    }
};

TEST(service, cache_keys_hit_exactly_when_normalized_encodings_match) {
    service s;
    request reg;
    register_circuit_request rp;
    rp.tenant = "t";
    rp.name = "wide";
    rp.bench = write_bench_string(make_cascaded_comparator(8, "wide"));
    reg.payload = rp;
    const response rr = s.handle(reg);
    ASSERT_TRUE(rr.ok);
    const auto& info = std::get<register_circuit_response>(rr.payload);
    const std::size_t handle = info.circuit;
    const std::size_t inputs = info.inputs;
    ASSERT_EQ(inputs, 64u);

    std::set<std::string> seen;
    std::size_t submitted = 0;
    const auto submit = [&](const auto& p, const std::string& what) {
        const std::string key = normalized_encoding(p, inputs);
        request q;
        q.payload = p;
        const response r = s.handle(q);
        ASSERT_TRUE(r.ok) << what << ": "
                          << std::get<error_response>(r.payload).message;
        const bool cached = std::visit(
            [](const auto& x) {
                if constexpr (requires { x.cached; }) return x.cached;
                else return false;
            },
            r.payload);
        EXPECT_EQ(cached, seen.count(key) == 1) << what;
        seen.insert(key);
        ++submitted;
    };

    // A registered circuit compiles on its first named job.
    test_length_request uniform;
    uniform.name = "t/wide";
    submit(uniform, "empty weights");
    uniform.name.clear();
    uniform.circuit = handle;
    uniform.weights.assign(inputs, 0.5);
    submit(uniform, "the explicit uniform vector");

    rng r(0xcafe);
    const auto random_weights = [&] {
        weight_vector w(inputs);
        for (double& x : w)
            x = static_cast<double>(r.next_word() >> 11) * 0x1p-53;
        return w;
    };
    for (int trial = 0; trial < 4; ++trial) {
        test_length_request t;
        t.circuit = handle;
        t.weights = random_weights();
        t.confidence = 0.99;
        submit(t, "a fresh vector");
        submit(t, "the same job again");
        const std::size_t i = r.next_word() % inputs;
        auto up = t;
        up.weights[i] = std::nextafter(t.weights[i], 1.0);
        submit(up, "one weight one ulp up");
        auto down = t;
        down.weights[i] = std::nextafter(t.weights[i], 0.0);
        submit(down, "one weight one ulp down");
        auto zero = t;
        zero.weights[i] = 0.0;
        submit(zero, "a zero weight");
        zero.weights[i] = -0.0;
        submit(zero, "the same weight as -0");
        auto conf = t;
        conf.confidence = std::nextafter(t.confidence, 1.0);
        submit(conf, "confidence one ulp up");
        auto threads = t;
        threads.threads = 8;
        submit(threads, "8 threads");
        auto named = t;
        named.circuit = 0;
        named.name = "t/wide";
        submit(named, "the named spelling");
    }

    fault_sim_request f;
    f.circuit = handle;
    f.weights = random_weights();
    f.patterns = 64;
    f.seed = 3;
    submit(f, "a fault_sim job");
    auto g = f;
    ++g.patterns;
    submit(g, "one more pattern");
    g = f;
    ++g.seed;
    submit(g, "the next seed");
    submit(f, "the fault_sim job again");

    optimize_request o;
    o.circuit = handle;
    o.weights = random_weights();
    o.options.max_sweeps = 1;
    submit(o, "an optimize job");
    bump_field count{std::size_t(-1)};
    fields(o.options, count);
    ASSERT_EQ(count.index, 13u);  // every optimize_options field
    for (std::size_t k = 0; k < count.index; ++k) {
        auto p = o;
        bump_field bump{k};
        fields(p.options, bump);
        submit(p, "optimize option " + std::to_string(k) + " bumped");
    }

    request sq;
    sq.payload = stats_request{};
    const auto st = std::get<stats_response>(s.handle(sq).payload);
    EXPECT_EQ(st.cache_probes, submitted);
    EXPECT_EQ(st.cache_entries, seen.size());
    EXPECT_EQ(st.cache_hits, submitted - seen.size());
}

TEST(service, orphaned_buckets_count_each_evicted_entry_exactly_once) {
    service s;
    request reg;
    register_circuit_request rp;
    rp.tenant = "t";
    rp.name = "orphan";
    rp.bench = write_bench_string(make_cascaded_comparator(2, "orphan"));
    reg.payload = std::move(rp);
    ASSERT_TRUE(s.handle(reg).ok);

    auto query = [&](double confidence) {
        request q;
        test_length_request p;
        p.name = "t/orphan";
        p.confidence = confidence;
        q.payload = p;
        return s.handle(q);
    };
    auto stats_of = [&] {
        request sq;
        sq.payload = stats_request{};
        return std::get<stats_response>(s.handle(sq).payload);
    };

    ASSERT_TRUE(query(0.9).ok);
    ASSERT_TRUE(query(0.99).ok);
    ASSERT_EQ(stats_of().cache_entries, 2u);

    // A reload re-stamps the revision; the first insert under the new
    // revision orphans the whole stale bucket, counting each of its two
    // entries exactly once.
    request rel;
    reload_circuit_request lp;
    lp.tenant = "t";
    lp.name = "orphan";
    lp.bench = write_bench_string(make_cascaded_comparator(2, "orphan"));
    rel.payload = std::move(lp);
    ASSERT_TRUE(s.handle(rel).ok);
    ASSERT_TRUE(query(0.9).ok);  // miss; insert orphans the old bucket
    std::uint64_t evictions = 0;
    {
        const auto st = stats_of();
        EXPECT_EQ(st.cache_evictions, 2u);
        EXPECT_EQ(st.cache_entries, 1u);
        EXPECT_EQ(st.cache_probes, st.cache_hits + st.cache_misses);
        evictions = st.cache_evictions;
    }

    // Explicit per-circuit evict counts its one live entry, and the
    // counter only ever moves up (monotonicity: no double counting, no
    // correction underflow).
    request eq;
    evict_request ep;
    ep.all = true;
    eq.payload = ep;
    ASSERT_TRUE(s.handle(eq).ok);
    const auto st = stats_of();
    EXPECT_EQ(st.cache_evictions, evictions + 1);
    EXPECT_EQ(st.cache_entries, 0u);
    EXPECT_GE(st.cache_evictions, evictions);
}

// --- stored hit bytes -------------------------------------------------------

/// The encoding of `r` by the schema walk: every stored hit byte dropped,
/// the matrix entries' too.
std::string walked_encoding(response r) {
    r.hit_bytes.reset();
    if (auto* m = std::get_if<matrix_response>(&r.payload))
        for (response& e : m->results) e.hit_bytes.reset();
    return encode(r);
}

bool is_cached(const response& r) {
    return std::visit(
        [](const auto& p) {
            if constexpr (requires { p.cached; }) return p.cached;
            else return false;
        },
        r.payload);
}

/// `r` is a hit answered from stored bytes, and those bytes are exactly
/// what the encoder's walk writes for it — through encode, encode_into and
/// a decode round trip alike.
void expect_stored_hit(const response& r, std::uint64_t id) {
    ASSERT_TRUE(r.ok);
    EXPECT_TRUE(is_cached(r));
    ASSERT_TRUE(r.hit_bytes) << "a cache hit must carry its stored bytes";
    EXPECT_EQ(r.id, id);
    const std::string bytes = encode(r);
    EXPECT_EQ(bytes, walked_encoding(r));
    std::string reused = "stale bytes of an earlier response";
    encode_into(r, reused);
    EXPECT_EQ(reused, bytes);
    const response back = decode_response(bytes);
    EXPECT_EQ(back.id, id);
    EXPECT_EQ(encode(back), bytes);
}

/// One job of `kind`, by handle or (when `name` is set) by name; `variant`
/// picks its options, so each variant is a distinct cache entry.
request single_job(job_kind kind, std::uint64_t id, std::size_t circuit,
                   const std::string& name, unsigned variant) {
    request q;
    q.id = id;
    switch (kind) {
        case job_kind::test_length: {
            test_length_request p;
            p.circuit = circuit;
            p.name = name;
            p.confidence = 0.9 + 0.01 * variant;
            q.payload = p;
            break;
        }
        case job_kind::optimize: {
            optimize_request p;
            p.circuit = circuit;
            p.name = name;
            p.options.max_sweeps = 1 + variant;
            q.payload = p;
            break;
        }
        case job_kind::fault_sim: {
            fault_sim_request p;
            p.circuit = circuit;
            p.name = name;
            p.patterns = 256;
            p.seed = 1 + variant;
            q.payload = p;
            break;
        }
    }
    return q;
}

/// The matrix spelling of single_job(kind, id, circuit, "", variant), its
/// one job `copies` times over.
request matrix_job(job_kind kind, std::uint64_t id, std::size_t circuit,
                   unsigned variant, std::size_t copies) {
    request q;
    q.id = id;
    matrix_request m;
    m.kind = kind;
    m.circuits = {circuit};
    m.weight_sets.assign(copies, weight_vector{});
    m.confidence = 0.9 + 0.01 * variant;
    m.options.max_sweeps = 1 + variant;
    m.patterns = 256;
    m.seed = 1 + variant;
    q.payload = std::move(m);
    return q;
}

std::size_t circuit_of(const response& r) {
    return std::visit(
        [](const auto& p) -> std::size_t {
            if constexpr (requires { p.circuit; }) return p.circuit;
            else return 0;
        },
        r.payload);
}

request register_request(const std::string& name, const std::string& suite,
                         const std::string& bench) {
    request q;
    register_circuit_request p;
    p.tenant = "t";
    p.name = name;
    p.suite = suite;
    p.bench = bench;
    q.payload = std::move(p);
    return q;
}

TEST(service, hit_bytes_equal_the_encoder) {
    service s;
    ASSERT_TRUE(s.handle(register_request("s1", "S1", "")).ok);
    ASSERT_TRUE(s.handle(register_request(
                    "sharded", "",
                    write_bench_string(make_sharded_comparators(8, 4))))
                    .ok);
    const std::uint64_t ids[] = {0, 9,
                                 std::numeric_limits<std::uint64_t>::max()};
    for (const std::string name : {"t/s1", "t/sharded"}) {
        for (const job_kind kind :
             {job_kind::test_length, job_kind::optimize, job_kind::fault_sim}) {
            SCOPED_TRACE(name + " " +
                         std::string(job_kinds.names[std::size_t(kind)]));
            // The named spelling computes first (it also compiles the
            // view); a miss is encoded by the walk.
            const response miss = s.handle(single_job(kind, 1, 0, name, 0));
            ASSERT_TRUE(miss.ok);
            EXPECT_FALSE(is_cached(miss));
            EXPECT_FALSE(miss.hit_bytes);
            const std::size_t handle = circuit_of(miss);
            for (unsigned v = 0; v < std::size(ids); ++v) {
                const std::uint64_t id = ids[v];
                SCOPED_TRACE("id " + std::to_string(id));
                expect_stored_hit(s.handle(single_job(kind, id, handle, "", 0)),
                                  id);
                expect_stored_hit(s.handle(single_job(kind, id, 0, name, 0)),
                                  id);

                const response m = s.handle(matrix_job(kind, id, handle, 0, 1));
                ASSERT_TRUE(m.ok);
                const auto& entries = std::get<matrix_response>(m.payload);
                ASSERT_EQ(entries.results.size(), 1u);
                expect_stored_hit(entries.results[0], id);
                EXPECT_EQ(encode(m), walked_encoding(m));

                // A fresh variant twice in one matrix: the first computes,
                // the second is answered from the first's stored bytes.
                const response d =
                    s.handle(matrix_job(kind, id, handle, v + 1, 2));
                ASSERT_TRUE(d.ok);
                const auto& pair = std::get<matrix_response>(d.payload);
                ASSERT_EQ(pair.results.size(), 2u);
                EXPECT_FALSE(pair.results[0].hit_bytes);
                EXPECT_FALSE(is_cached(pair.results[0]));
                expect_stored_hit(pair.results[1], id);
                const std::string bytes = encode(d);
                EXPECT_EQ(bytes, walked_encoding(d));
                EXPECT_EQ(encode(decode_response(bytes)), bytes);
            }
        }
    }
}

TEST(service, hit_bytes_carry_the_reloaded_revision) {
    service s;
    const std::string bench =
        write_bench_string(make_cascaded_comparator(2, "reloaded"));
    ASSERT_TRUE(s.handle(register_request("reloaded", "", bench)).ok);
    const request q = single_job(job_kind::test_length, 5, 0, "t/reloaded", 0);
    ASSERT_TRUE(s.handle(q).ok);
    const response before = s.handle(q);
    expect_stored_hit(before, 5);
    const std::uint64_t old_revision =
        std::get<test_length_response>(before.payload).revision;

    request rel;
    reload_circuit_request lp;
    lp.tenant = "t";
    lp.name = "reloaded";
    lp.bench = bench;
    rel.payload = std::move(lp);
    const response reloaded = s.handle(rel);
    ASSERT_TRUE(reloaded.ok);
    const std::uint64_t revision =
        std::get<reload_circuit_response>(reloaded.payload).revision;
    ASSERT_NE(revision, old_revision);

    // The same query now misses, and its hits carry the new revision in
    // their bytes — never the orphaned bucket's.
    const response miss = s.handle(q);
    ASSERT_TRUE(miss.ok);
    EXPECT_FALSE(miss.hit_bytes);
    const response after = s.handle(q);
    expect_stored_hit(after, 5);
    EXPECT_NE(after.hit_bytes, before.hit_bytes);
    EXPECT_EQ(std::get<test_length_response>(after.payload).revision,
              revision);
    // Same netlist text, so apart from the revision the bytes are those
    // of the hit before the reload.
    const std::string stamp_before =
        "\"revision\":" + std::to_string(old_revision) + ",";
    const std::string stamp = "\"revision\":" + std::to_string(revision) + ",";
    const std::string bytes = encode(after);
    EXPECT_EQ(bytes.find(stamp_before), std::string::npos);
    std::string expected = encode(before);
    const std::size_t at = expected.find(stamp_before);
    ASSERT_NE(at, std::string::npos);
    expected.replace(at, stamp_before.size(), stamp);
    EXPECT_EQ(bytes, expected);
}

// The compute kernels are scalar; stats keeps the simd_isa/simd_lanes
// fields on the wire and pins them to the scalar reference.
TEST(SimdStats, StatsResponseCarriesDispatch) {
    service s;
    request q;
    q.id = 1;
    q.payload = stats_request{};
    const response resp = s.handle(q);
    ASSERT_TRUE(resp.ok);
    const auto& st = std::get<stats_response>(resp.payload);
    EXPECT_EQ(st.simd_isa, "scalar");
    EXPECT_EQ(st.simd_lanes, 1u);
}

}  // namespace
}  // namespace wrpt
