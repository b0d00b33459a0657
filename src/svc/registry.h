// Named multi-tenant circuit registry — the catalog policy over
// exec/batch_session's circuit table.
//
// The session deals in integer handles and holds every circuit once, in
// its handle's row: the netlist, the compiled state (or nothing while
// unloaded) and the owning tenant. The registry gives those handles
// durable names. A circuit registers as "tenant/name", jobs address it by
// that string, and the server resolves the name to a handle before the
// job touches the cache or the session. Three properties make the catalog
// serve-shaped:
//
//  * Lazy residency with a bounded view LRU. register_circuit adds an
//    uncompiled row, so thousands of registrations stay cheap; the first
//    named job compiles the row's own netlist and, when the resident count
//    would exceed options.max_views, the coldest resident view —
//    least-recently resolved, by an atomic use stamp exactly like
//    engine_pool's checkout stamps — is unloaded. The rebuild compiles the
//    same netlist, revision stamp included, so results cached before an
//    eviction revalidate after it: the cache bucket's revision still
//    matches. Circuits added by load_circuit have no tenant and are not
//    catalog entries: the LRU never unloads them.
//
//  * Atomic hot reload. reload_circuit swaps the row's netlist for a
//    freshly parsed one (new revision) and, if the entry is resident,
//    recompiles in place under the same handle while the caller holds the
//    session lock exclusively — in-flight jobs have already drained, the
//    old view's warm engine pool is destroyed with it, and the old cache
//    bucket is orphaned by the revision re-stamp on first insert. A
//    request therefore only ever observes one revision end to end.
//
//  * Per-tenant quotas. A uniform tenant_quota bounds registered circuits
//    (typed "quota" refusal past the cap), clamps each compiled view's
//    engine-pool capacity, and caps result-cache bytes (enforced by the
//    service's insert path, which reads each entry's tenant from its
//    row). Refusal envelopes carry a machine-readable `code` so clients
//    can tell quota pressure from not-found from malformed input.
//
// Locking: the registry has no lock of its own; the service's session
// lock guards it together with the table it reshapes. Mutators
// (register/reload/ensure_resident) need that lock exclusively;
// resolve/needs_compile/list/stats run under it shared, with LRU stamps
// as atomics so concurrent resolvers never need the exclusive side.

#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/batch_session.h"
#include "netlist/netlist.h"
#include "svc/request.h"

namespace wrpt::svc {

/// Typed refusal: `code()` travels in the error envelope's `code` field
/// ("not-found", "exists", "quota", "invalid"), so clients can branch on
/// the refusal class without parsing prose.
class registry_error : public std::runtime_error {
public:
    registry_error(std::string code, const std::string& message)
        : std::runtime_error(message), code_(std::move(code)) {}
    const std::string& code() const { return code_; }

private:
    std::string code_;
};

class registry {
public:
    /// Uniform per-tenant limits; every field 0 = unbounded.
    struct tenant_quota {
        std::size_t max_circuits = 0;     ///< registered entries per tenant
        std::size_t max_engines = 0;      ///< engine-pool cap per circuit
        std::uint64_t max_cache_bytes = 0;  ///< result-cache bytes per tenant
    };

    struct options {
        /// Resident compiled views across the whole catalog (0 =
        /// unbounded): the coldest view is unloaded when a compile would
        /// exceed it.
        std::size_t max_views = 0;
        tenant_quota quota;
    };

    /// A catalog over `session`'s circuit table, which must outlive it.
    registry(batch_session& session, options opt)
        : session_(session), options_(opt) {}

    registry(const registry&) = delete;
    registry& operator=(const registry&) = delete;

    struct resolution {
        bool found = false;
        bool resident = false;
        std::size_t handle = 0;
    };

    /// Register `nl` as "tenant/name". Lazy: adds an uncompiled session
    /// row owned by `tenant`. Throws registry_error ("invalid" for a
    /// malformed address, "exists" for a taken name, "quota" past the
    /// tenant's circuit cap — counted as a rejection). Caller holds the
    /// session lock exclusively.
    register_circuit_response register_circuit(const std::string& tenant,
                                               const std::string& name,
                                               netlist nl);

    /// Swap the netlist of "tenant/name" and, if resident, recompile under
    /// the same handle. Throws registry_error("not-found") for unknown
    /// names. Caller holds the session lock exclusively.
    reload_circuit_response reload_circuit(const std::string& tenant,
                                           const std::string& name,
                                           netlist nl);

    /// Look up "tenant/name" and stamp its LRU clock. Safe under a shared
    /// session lock; never compiles.
    resolution resolve(const std::string& address) const;

    /// True when `address` names a registered entry whose view is not
    /// resident (the caller must upgrade to the exclusive session lock and
    /// ensure_resident before running jobs on it).
    bool needs_compile(const std::string& address) const;

    /// Compile `address`'s view if registered and not resident, then
    /// unload the coldest resident views beyond options.max_views. A
    /// no-op for unknown names (resolve reports those as typed errors).
    /// Caller holds the session lock exclusively.
    void ensure_resident(const std::string& address);

    /// Catalog rows, sorted by "tenant/name"; `tenant` filters when
    /// non-empty. Safe under a shared session lock.
    std::vector<catalog_entry_payload> list(const std::string& tenant) const;

    /// The stats section, tenants sorted; absent (present false) until a
    /// circuit registers. The caller fills each tenant's cache_bytes.
    registry_stats_payload stats() const;

private:
    /// A catalog entry: the row's handle plus the policy state kept beside
    /// it. The tenant, the netlist and its revision live in the row.
    struct entry {
        std::size_t handle = 0;
        std::uint64_t reloads = 0;
        /// LRU stamp, written by resolve() under the shared session lock —
        /// atomic so concurrent resolvers never race (mutable because
        /// stamping is a read-path side effect); entries live in
        /// node-stable unordered_map nodes, so the address is durable.
        mutable std::atomic<std::uint64_t> last_use{0};
    };
    struct tenant_state {
        std::size_t circuits = 0;
        std::uint64_t rejections = 0;
    };

    void touch(const entry& e) const {
        e.last_use.store(use_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
    }
    /// Clamp a freshly compiled view's engine pool to the tenant quota
    /// (the tighter of the session default and the quota wins).
    void apply_engine_quota(std::size_t handle) const;
    /// Entries whose view is compiled.
    std::size_t resident_count() const;
    /// Unload coldest resident views until at most options.max_views
    /// remain; `keep` is never a victim.
    void evict_excess(const entry& keep);

    batch_session& session_;
    options options_;
    /// Address "tenant/name" -> entry. String-keyed and node-stable by
    /// design: names are arbitrary text (no dense integer domain) and the
    /// atomic LRU stamps need durable addresses, which the dense map's
    /// relocating maintenance would break.
    std::unordered_map<std::string, entry>  // wrpt-lint: allow(dense-map)
        entries_;
    std::unordered_map<std::string, tenant_state>  // wrpt-lint: allow(dense-map)
        tenants_;
    std::uint64_t view_evictions_ = 0;
    std::uint64_t view_rebuilds_ = 0;
    mutable std::atomic<std::uint64_t> use_clock_{0};
};

}  // namespace wrpt::svc
