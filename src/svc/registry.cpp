#include "svc/registry.h"

#include <algorithm>
#include <tuple>

#include "exec/engine_pool.h"

namespace wrpt::svc {

namespace {

std::string address_of(const std::string& tenant, const std::string& name) {
    return tenant + "/" + name;
}

/// Addresses split at the *first* '/', so tenants must not contain one
/// (names may — "team/block/alu" is tenant "team", name "block/alu").
void check_address(const std::string& tenant, const std::string& name) {
    if (tenant.empty() || name.empty())
        throw registry_error(
            "invalid", "registry: tenant and name must both be non-empty");
    if (tenant.find('/') != std::string::npos)
        throw registry_error("invalid",
                             "registry: tenant must not contain '/'");
}

}  // namespace

register_circuit_response registry::register_circuit(
    const std::string& tenant, const std::string& name, netlist nl) {
    check_address(tenant, name);
    tenant_state& ts = tenants_[tenant];
    const std::string address = address_of(tenant, name);
    if (entries_.find(address) != entries_.end())
        throw registry_error("exists", "registry: '" + address +
                                           "' is already registered; "
                                           "reload it instead");
    if (options_.quota.max_circuits != 0 &&
        ts.circuits >= options_.quota.max_circuits) {
        ++ts.rejections;
        throw registry_error(
            "quota", "registry: tenant '" + tenant +
                         "' is at its circuit quota (" +
                         std::to_string(options_.quota.max_circuits) + ")");
    }
    register_circuit_response out;
    out.tenant = tenant;
    out.name = name;
    out.revision = nl.revision();
    const netlist_stats st = nl.stats();
    out.inputs = st.input_count;
    out.outputs = st.output_count;
    out.gates = st.gate_count;
    // Lazy residency: add the row but compile nothing — the first named
    // job pays for the view.
    out.circuit = session_.add_uncompiled(std::move(nl), tenant);
    entry& e = entries_[address];
    e.handle = out.circuit;
    ++ts.circuits;
    touch(e);
    return out;
}

reload_circuit_response registry::reload_circuit(const std::string& tenant,
                                                 const std::string& name,
                                                 netlist nl) {
    check_address(tenant, name);
    const auto it = entries_.find(address_of(tenant, name));
    if (it == entries_.end())
        throw registry_error("not-found", "registry: unknown circuit '" +
                                              address_of(tenant, name) + "'");
    entry& e = it->second;
    reload_circuit_response out;
    out.tenant = tenant;
    out.name = name;
    out.circuit = e.handle;
    out.old_revision = session_.circuit(e.handle).revision();
    // A resident view recompiles in place under the same handle. The
    // caller holds the session lock exclusively, so every in-flight job
    // has drained on the old view; the old warm engine pool dies with it,
    // and the revision re-stamp orphans the old cache bucket on the next
    // insert. An unloaded row only swaps its netlist.
    out.revision = session_.replace_circuit(e.handle, std::move(nl));
    if (session_.has_circuit(e.handle)) apply_engine_quota(e.handle);
    out.reloads = ++e.reloads;
    touch(e);
    return out;
}

registry::resolution registry::resolve(const std::string& address) const {
    const auto it = entries_.find(address);
    if (it == entries_.end()) return {};
    touch(it->second);  // LRU stamp: atomic, safe under the shared lock
    const std::size_t handle = it->second.handle;
    return {true, session_.has_circuit(handle), handle};
}

bool registry::needs_compile(const std::string& address) const {
    const auto it = entries_.find(address);
    return it != entries_.end() && !session_.has_circuit(it->second.handle);
}

void registry::ensure_resident(const std::string& address) {
    const auto it = entries_.find(address);
    if (it == entries_.end()) return;  // resolve reports the typed error
    entry& e = it->second;
    if (session_.has_circuit(e.handle)) return;
    session_.compile_circuit(e.handle);
    apply_engine_quota(e.handle);
    ++view_rebuilds_;
    touch(e);
    evict_excess(e);
}

void registry::apply_engine_quota(std::size_t handle) const {
    const std::size_t quota = options_.quota.max_engines;
    if (quota == 0) return;
    // The compile set the session-wide default; the tighter bound wins.
    engine_pool& pool = session_.pool(handle);
    const std::size_t current = pool.capacity();
    pool.set_capacity(current == 0 ? quota : std::min(current, quota));
}

std::size_t registry::resident_count() const {
    return static_cast<std::size_t>(std::count_if(
        entries_.begin(), entries_.end(), [&](const auto& kv) {
            return session_.has_circuit(kv.second.handle);
        }));
}

void registry::evict_excess(const entry& keep) {
    if (options_.max_views == 0) return;
    // O(entries) scans per compile: compiles are rare and dwarf the scan,
    // so a resident index would be bookkeeping for nothing.
    for (std::size_t resident = resident_count();
         resident > options_.max_views; --resident) {
        const entry* coldest = nullptr;
        std::uint64_t coldest_use = 0;
        for (const auto& [address, e] : entries_) {
            if (&e == &keep || !session_.has_circuit(e.handle)) continue;
            const std::uint64_t use =
                e.last_use.load(std::memory_order_relaxed);
            if (coldest == nullptr || use < coldest_use) {
                coldest = &e;
                coldest_use = use;
            }
        }
        if (coldest == nullptr) break;  // only `keep` itself is resident
        session_.unload_circuit(coldest->handle);
        ++view_evictions_;
    }
}

std::vector<catalog_entry_payload> registry::list(
    const std::string& tenant) const {
    std::vector<catalog_entry_payload> rows;
    rows.reserve(entries_.size());
    for (const auto& [address, e] : entries_) {
        const std::string& owner = session_.tenant(e.handle);
        if (!tenant.empty() && owner != tenant) continue;
        catalog_entry_payload row;
        row.tenant = owner;
        row.name = address.substr(owner.size() + 1);  // after "tenant/"
        row.circuit = e.handle;
        row.revision = session_.circuit(e.handle).revision();
        row.resident = session_.has_circuit(e.handle);
        row.reloads = e.reloads;
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const catalog_entry_payload& a,
                 const catalog_entry_payload& b) {
                  return std::tie(a.tenant, a.name) <
                         std::tie(b.tenant, b.name);
              });
    return rows;
}

registry_stats_payload registry::stats() const {
    registry_stats_payload c;
    if (entries_.empty()) return c;  // the section stays off the wire
    c.present = true;
    c.circuits = entries_.size();
    c.resident = resident_count();
    c.max_views = options_.max_views;
    c.view_evictions = view_evictions_;
    c.view_rebuilds = view_rebuilds_;
    for (const auto& [tenant, ts] : tenants_) {
        tenant_stats_payload& tp = c.tenants.emplace_back();
        tp.tenant = tenant;
        tp.circuits = ts.circuits;
        tp.max_circuits = options_.quota.max_circuits;
        tp.max_engines = options_.quota.max_engines;
        tp.max_cache_bytes =
            static_cast<std::size_t>(options_.quota.max_cache_bytes);
        tp.rejections = ts.rejections;
    }
    std::sort(c.tenants.begin(), c.tenants.end(),
              [](const tenant_stats_payload& a, const tenant_stats_payload& b) {
                  return a.tenant < b.tenant;
              });
    return c;
}

}  // namespace wrpt::svc
