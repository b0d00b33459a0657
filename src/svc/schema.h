// Wire schema: the one field list of every request and response payload.
//
// `fields(payload, v)` calls the visitor once per wire field, in canonical
// order, with the field's JSON key, the member it carries and, where it
// differs from the default, how it is spelled. Everything that handles
// wire fields walks this list and nothing else: the JSON-lines encoder and
// decoder (wire.cpp), the result cache's binary key (service.cpp) and the
// fuzz generators (tests/test_wire_fuzz.cpp). A new field is one line here.
//
// A visitor provides:
//
//   v(key, member)             always sent; a missing key keeps the member's
//                              default on decode
//   v(key, member, omit_empty) sent only when non-empty: a non-empty string,
//                              or a section whose `present` flag is set (a
//                              decoded section is present)
//   v(key, flag, true_unless_sent{other})
//                              a bool that, when its key is missing, reads
//                              true unless `other` was sent
//   v(key, member, kinds)      a kind: the variant alternative or enum value
//                              with index i travels as kinds.names[i]; a
//                              variant kind must be sent
//   v.group(key, fn)           a nested object whose fields are members of
//                              the enclosing payload; fn(v') lists them
//
// Member types: std::string, bool, double, unsigned integers (decoded
// with a range check against the member's type), std::vector of any of
// these, and any type with its own `fields` (a nested object).

#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "svc/request.h"

namespace wrpt::svc {

// --- spellings --------------------------------------------------------------

struct omit_empty_t {};
inline constexpr omit_empty_t omit_empty{};

struct true_unless_sent {
    std::string_view key;
};

template <std::size_t N>
struct kind_names {
    std::string_view noun;  ///< decode errors say "unknown <noun> kind"
    std::array<std::string_view, N> names;
};

template <class... S>
constexpr auto make_kinds(std::string_view noun, S... names) {
    return kind_names<sizeof...(S)>{noun, {names...}};
}

inline constexpr auto request_kinds =
    make_kinds("request", "load_circuit", "test_length", "optimize",
               "fault_sim", "matrix", "stats", "evict", "shutdown",
               "register_circuit", "reload_circuit", "list_circuits");
inline constexpr auto response_kinds =
    make_kinds("response", "error", "load_circuit", "test_length",
               "optimize", "fault_sim", "matrix", "stats", "evict",
               "shutdown", "register_circuit", "reload_circuit",
               "list_circuits");
inline constexpr auto job_kinds =
    make_kinds("job", "test_length", "optimize", "fault_sim");

static_assert(request_kinds.names.size() ==
              std::variant_size_v<decltype(request::payload)>);
static_assert(response_kinds.names.size() ==
              std::variant_size_v<decltype(response::payload)>);
static_assert(job_kinds.names.size() == std::variant_size_v<job_request>);

template <class... Ts>
std::size_t kind_index(const std::variant<Ts...>& v) {
    return v.index();
}
template <class E>
    requires std::is_enum_v<E>
std::size_t kind_index(E e) {
    return static_cast<std::size_t>(e);
}

/// Make `i` the kind of `v`: a default-constructed alternative i.
template <class... Ts>
void set_kind(std::variant<Ts...>& v, std::size_t i) {
    [&]<std::size_t... I>(std::index_sequence<I...>) {
        (void)((i == I && (v.template emplace<I>(), true)) || ...);
    }(std::index_sequence_for<Ts...>{});
}
template <class E>
    requires std::is_enum_v<E>
void set_kind(E& e, std::size_t i) {
    e = static_cast<E>(i);
}

/// Whether an omit_empty field stays off the wire.
inline bool empty_field(const std::string& s) { return s.empty(); }
template <class S>
    requires requires(const S& s) { s.present; }
bool empty_field(const S& s) {
    return !s.present;
}

/// A JSON array member (std::string is a JSON string, not a list).
template <class T>
concept wire_list = requires(T& v) { v.emplace_back(); };

/// Matches `P` against a payload type whether or not it is const: one
/// description serves the encoder (const) and the decoder (mutable).
template <class P, class... T>
concept payload_of = (std::same_as<std::remove_const_t<P>, T> || ...);

// --- field lists ------------------------------------------------------------

template <class P, class V>
void fields(P& p, V& v) {
    // Shared heads: every job request names its target, every job
    // response starts with the same header. Registry addressing is
    // opt-in: "name" is sent only when used, so handle-addressed
    // encodings are byte-identical to the pre-registry wire format.
    if constexpr (payload_of<P, test_length_request, optimize_request,
                             fault_sim_request>) {
        v("circuit", p.circuit);
        v("name", p.name, omit_empty);
        v("weights", p.weights);
    } else if constexpr (payload_of<P, test_length_response,
                                    optimize_response, fault_sim_response>) {
        v("circuit", p.circuit);
        v("revision", p.revision);
        v("cached", p.cached);
        v("elapsed_ms", p.elapsed_ms);
    }

    if constexpr (payload_of<P, request>) {
        v("req", p.payload, request_kinds);
        v("id", p.id);
        std::visit([&](auto& q) { fields(q, v); }, p.payload);
    } else if constexpr (payload_of<P, response>) {
        v("id", p.id);
        v("ok", p.ok);
        v("resp", p.payload, response_kinds);
        std::visit([&](auto& r) { fields(r, v); }, p.payload);
    } else if constexpr (payload_of<P, load_circuit_request>) {
        v("name", p.name);
        v("bench", p.bench);
        v("path", p.path);
        v("suite", p.suite);
    } else if constexpr (payload_of<P, test_length_request>) {
        v("confidence", p.confidence);
        v("threads", p.threads);
    } else if constexpr (payload_of<P, optimize_options>) {
        v("confidence", p.confidence);
        v("alpha", p.alpha);
        v("max_sweeps", p.max_sweeps);
        v("weight_min", p.weight_min);
        v("weight_max", p.weight_max);
        v("grid", p.grid);
        v("max_relevant_faults", p.max_relevant_faults);
        v("relevance_window", p.relevance_window);
        v("saddle_escape", p.saddle_escape);
        v("saddle_perturbation", p.saddle_perturbation);
        v("trust_step", p.trust_step);
        v("prepare_block", p.prepare_block);
        v("threads", p.threads);
    } else if constexpr (payload_of<P, optimize_request>) {
        v("options", p.options);
    } else if constexpr (payload_of<P, fault_sim_request>) {
        v("patterns", p.patterns);
        v("seed", p.seed);
    } else if constexpr (payload_of<P, matrix_request>) {
        v("kind", p.kind, job_kinds);
        v("circuits", p.circuits);
        v("weight_sets", p.weight_sets);
        v("options", p.options);
        v("patterns", p.patterns);
        v("seed", p.seed);
        v("confidence", p.confidence);
    } else if constexpr (payload_of<P, evict_request>) {
        // Naming a circuit implies a per-circuit evict; "all" must be
        // explicit to wipe the whole daemon when a circuit is given.
        v("all", p.all, true_unless_sent{"circuit"});
        v("circuit", p.circuit);
        v("keep_engines", p.keep_engines);
    } else if constexpr (payload_of<P, register_circuit_request,
                                    reload_circuit_request>) {
        v("tenant", p.tenant);
        v("name", p.name);
        v("bench", p.bench);
        v("path", p.path);
        v("suite", p.suite);
    } else if constexpr (payload_of<P, list_circuits_request>) {
        v("tenant", p.tenant, omit_empty);
    } else if constexpr (payload_of<P, error_response>) {
        v("error", p.message);
        // Typed refusals ("quota", "not_found", ...) carry a code;
        // generic envelopes stay byte-identical to the pre-registry format.
        v("code", p.code, omit_empty);
    } else if constexpr (payload_of<P, load_circuit_response>) {
        v("circuit", p.circuit);
        v("name", p.name);
        v("inputs", p.inputs);
        v("outputs", p.outputs);
        v("gates", p.gates);
        v("faults", p.faults);
        v("revision", p.revision);
    } else if constexpr (payload_of<P, length_payload>) {
        v("feasible", p.feasible);
        v("test_length", p.test_length);
        v("relevant_faults", p.relevant_faults);
        v("zero_prob_faults", p.zero_prob_faults);
        v("hardest_probability", p.hardest_probability);
    } else if constexpr (payload_of<P, test_length_response>) {
        v("length", p.length);
    } else if constexpr (payload_of<P, optimize_response>) {
        v("feasible", p.feasible);
        v("initial_length", p.initial_length);
        v("final_length", p.final_length);
        v("sweeps", p.sweeps);
        v("analysis_calls", p.analysis_calls);
        v("zero_prob_faults", p.zero_prob_faults);
        v("weights", p.weights);
        v("length", p.length);
    } else if constexpr (payload_of<P, fault_sim_response>) {
        v("patterns", p.patterns);
        v("faults", p.faults);
        v("detected", p.detected);
        v("coverage", p.coverage);
    } else if constexpr (payload_of<P, matrix_response>) {
        v("results", p.results);
    } else if constexpr (payload_of<P, stats_response>) {
        v("requests", p.requests);
        v.group("cache", [&](auto& c) {
            c("probes", p.cache_probes);
            c("hits", p.cache_hits);
            c("misses", p.cache_misses);
            c("entries", p.cache_entries);
            c("evictions", p.cache_evictions);
            c("bytes", p.cache_bytes);
        });
        v("circuits", p.circuits);
        v("simd_isa", p.simd_isa);
        v("simd_lanes", p.simd_lanes);
        v("pools", p.pools);
        // Optional sections, sent last and only when filled in, so
        // registry-free and stdin-daemon transcripts keep their bytes.
        v("registry", p.registry, omit_empty);
        v("server", p.server, omit_empty);
    } else if constexpr (payload_of<P, pool_stats_payload>) {
        v("circuit", p.circuit);
        v("revision", p.revision);
        v("engines", p.engines);
        v("warm", p.warm);
        v("capacity", p.capacity);
        v("hits", p.hits);
        v("misses", p.misses);
        v("resyncs", p.resyncs);
        v("evictions", p.evictions);
        v("relocations", p.relocations);
    } else if constexpr (payload_of<P, registry_stats_payload>) {
        v("circuits", p.circuits);
        v("resident", p.resident);
        v("max_views", p.max_views);
        v("view_evictions", p.view_evictions);
        v("view_rebuilds", p.view_rebuilds);
        v("tenants", p.tenants);
    } else if constexpr (payload_of<P, tenant_stats_payload>) {
        v("tenant", p.tenant);
        v("circuits", p.circuits);
        v("cache_bytes", p.cache_bytes);
        v("max_circuits", p.max_circuits);
        v("max_engines", p.max_engines);
        v("max_cache_bytes", p.max_cache_bytes);
        v("rejections", p.rejections);
    } else if constexpr (payload_of<P, server_stats_payload>) {
        v("active", p.active);
        v("workers", p.workers);
        v("max_connections", p.max_connections);
        v("queue_depth", p.queue_depth);
        v("queue_bytes", p.queue_bytes);
        v("accepted", p.accepted);
        v("refused", p.refused);
        v("requests", p.requests);
        v("protocol_errors", p.protocol_errors);
        v("overflows", p.overflows);
        v("timeouts", p.timeouts);
        v("queue_drops", p.queue_drops);
        v("accept_backoffs", p.accept_backoffs);
    } else if constexpr (payload_of<P, evict_response>) {
        v("cache_entries", p.cache_entries);
        v("engines", p.engines);
    } else if constexpr (payload_of<P, register_circuit_response>) {
        v("tenant", p.tenant);
        v("name", p.name);
        v("circuit", p.circuit);
        v("revision", p.revision);
        v("inputs", p.inputs);
        v("outputs", p.outputs);
        v("gates", p.gates);
    } else if constexpr (payload_of<P, reload_circuit_response>) {
        v("tenant", p.tenant);
        v("name", p.name);
        v("circuit", p.circuit);
        v("revision", p.revision);
        v("old_revision", p.old_revision);
        v("reloads", p.reloads);
    } else if constexpr (payload_of<P, list_circuits_response>) {
        v("entries", p.entries);
    } else if constexpr (payload_of<P, catalog_entry_payload>) {
        v("tenant", p.tenant);
        v("name", p.name);
        v("circuit", p.circuit);
        v("revision", p.revision);
        v("resident", p.resident);
        v("reloads", p.reloads);
    } else {
        // Only the field-less payloads (stats and shutdown) get here.
        static_assert(std::is_empty_v<P>, "payload without a field list");
    }
}

}  // namespace wrpt::svc
