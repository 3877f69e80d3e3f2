#include "api/experiment_spec.hh"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "core/filter_registry.hh"
#include "core/filter_spec.hh"
#include "trace/apps.hh"
#include "util/logging.hh"

namespace jetty::api
{

// ---- MachineSpec <-> SmpConfig ---------------------------------------

MachineSpec
MachineSpec::fromSmpConfig(const sim::SmpConfig &cfg)
{
    MachineSpec m;
    m.procs = cfg.nprocs;
    m.buses = cfg.snoopBuses;
    m.subblocked = cfg.l2.subblocks > 1;
    m.batchRefs = cfg.batchRefs;
    m.hasGeometry = true;
    m.l1 = cfg.l1;
    m.l2 = cfg.l2;
    m.wbEntries = cfg.wbEntries;
    m.physAddrBits = cfg.physAddrBits;
    return m;
}

sim::SmpConfig
MachineSpec::toSmpConfig() const
{
    sim::SmpConfig cfg = toVariant().smpConfig();
    if (hasGeometry) {
        cfg.l1 = l1;
        cfg.l2 = l2;
        cfg.wbEntries = wbEntries;
        cfg.physAddrBits = physAddrBits;
    }
    if (batchRefs > 0)
        cfg.batchRefs = batchRefs;
    return cfg;
}

experiments::SystemVariant
MachineSpec::toVariant() const
{
    experiments::SystemVariant variant;
    variant.nprocs = procs;
    variant.subblocked = subblocked;
    variant.snoopBuses = buses;
    return variant;
}

bool
MachineSpec::variantCompatible(std::string *why) const
{
    if (!hasGeometry)
        return true;
    const sim::SmpConfig ref = toVariant().smpConfig();
    const auto mismatch = [&](const char *field, std::uint64_t want,
                              std::uint64_t got) {
        if (want == got)
            return false;
        if (why) {
            *why = std::string("machine.") + field + " = " +
                   std::to_string(got) +
                   " is an explicit-geometry override (variant default " +
                   std::to_string(want) +
                   "); run/sweep go through the experiment layer, which "
                   "only models paper variants — use bench or fuzz for "
                   "custom geometries";
        }
        return true;
    };
    if (mismatch("l1.size_bytes", ref.l1.sizeBytes, l1.sizeBytes) ||
        mismatch("l1.assoc", ref.l1.assoc, l1.assoc) ||
        mismatch("l1.block_bytes", ref.l1.blockBytes, l1.blockBytes) ||
        mismatch("l2.size_bytes", ref.l2.sizeBytes, l2.sizeBytes) ||
        mismatch("l2.assoc", ref.l2.assoc, l2.assoc) ||
        mismatch("l2.block_bytes", ref.l2.blockBytes, l2.blockBytes) ||
        mismatch("l2.subblocks", ref.l2.subblocks, l2.subblocks) ||
        mismatch("wb_entries", ref.wbEntries, wbEntries) ||
        mismatch("phys_addr_bits", ref.physAddrBits, physAddrBits)) {
        return false;
    }
    return true;
}

// ---- emission --------------------------------------------------------

json::Value
ExperimentSpec::toJson() const
{
    json::Value root = json::Value::object();
    root.set("jetty_spec", kVersion);

    json::Value m = json::Value::object();
    m.set("procs", machine.procs);
    m.set("buses", machine.buses);
    m.set("subblocked", machine.subblocked);
    if (machine.batchRefs > 0)
        m.set("batch_refs", machine.batchRefs);
    if (machine.hasGeometry) {
        json::Value l1 = json::Value::object();
        l1.set("size_bytes", machine.l1.sizeBytes);
        l1.set("assoc", machine.l1.assoc);
        l1.set("block_bytes", machine.l1.blockBytes);
        m.set("l1", std::move(l1));
        json::Value l2 = json::Value::object();
        l2.set("size_bytes", machine.l2.sizeBytes);
        l2.set("assoc", machine.l2.assoc);
        l2.set("block_bytes", machine.l2.blockBytes);
        l2.set("subblocks", machine.l2.subblocks);
        m.set("l2", std::move(l2));
        m.set("wb_entries", machine.wbEntries);
        m.set("phys_addr_bits", machine.physAddrBits);
    }
    root.set("machine", std::move(m));

    if (!apps.empty() || !traceFiles.empty() || scale > 0) {
        json::Value w = json::Value::object();
        if (!apps.empty()) {
            json::Value arr = json::Value::array();
            for (const auto &a : apps)
                arr.push(a);
            w.set("apps", std::move(arr));
        }
        if (!traceFiles.empty()) {
            json::Value arr = json::Value::array();
            for (const auto &f : traceFiles)
                arr.push(f);
            w.set("trace_files", std::move(arr));
        }
        if (scale > 0)
            w.set("scale", scale);
        root.set("workload", std::move(w));
    }

    if (!filters.empty()) {
        json::Value arr = json::Value::array();
        for (const auto &f : filters)
            arr.push(f);
        root.set("filters", std::move(arr));
    }

    if (!sweepProcs.empty() || !sweepBuses.empty()) {
        json::Value s = json::Value::object();
        if (!sweepProcs.empty()) {
            json::Value arr = json::Value::array();
            for (unsigned p : sweepProcs)
                arr.push(p);
            s.set("procs", std::move(arr));
        }
        if (!sweepBuses.empty()) {
            json::Value arr = json::Value::array();
            for (unsigned b : sweepBuses)
                arr.push(b);
            s.set("buses", std::move(arr));
        }
        root.set("sweep", std::move(s));
    }

    if (benchRepeat > 0) {
        json::Value b = json::Value::object();
        b.set("repeat", benchRepeat);
        root.set("bench", std::move(b));
    }

    if (hasFuzz) {
        json::Value fz = json::Value::object();
        fz.set("seed", fuzz.seed);
        fz.set("rounds", fuzz.rounds);
        fz.set("refs_per_proc", fuzz.refsPerProc);
        fz.set("audit_every", fuzz.auditEvery);
        fz.set("randomize_buses", fuzz.randomizeBuses);
        if (fuzz.seconds > 0)
            fz.set("seconds", fuzz.seconds);
        root.set("fuzz", std::move(fz));
    }
    return root;
}

std::string
ExperimentSpec::emit() const
{
    return toJson().dump();
}

std::string
ExperimentSpec::canonicalText() const
{
    return toJson().dumpCanonical();
}

// ---- parsing ---------------------------------------------------------

namespace
{

/** Join @p keys as "a, b, c" for "valid:" lists. */
std::string
joinKeys(const std::vector<const char *> &keys)
{
    std::string out;
    for (const char *k : keys) {
        if (!out.empty())
            out += ", ";
        out += k;
    }
    return out;
}

/**
 * Validating view of one JSON object: rejects unknown members up front
 * (naming the key, its path, and the valid set — the registry's
 * describeFailure() style) and offers typed, range-checked readers that
 * prefix every complaint with the member's dotted path.
 */
class ObjReader
{
  public:
    ObjReader(const json::Value &v, const std::string &path,
              std::vector<const char *> keys, std::string *err)
        : obj_(v), path_(path), err_(err)
    {
        if (!ok())
            return;
        if (!v.isObject()) {
            fail(path_, "expected an object");
            return;
        }
        for (const auto &m : v.members()) {
            const bool known =
                std::any_of(keys.begin(), keys.end(),
                            [&m](const char *k) { return m.first == k; });
            if (!known) {
                fail(path_.empty() ? m.first : path_ + "." + m.first,
                     "unknown key (valid: " + joinKeys(keys) + ")");
                return;
            }
        }
    }

    bool ok() const { return err_->empty(); }

    const json::Value *
    get(const char *key) const
    {
        return ok() ? obj_.find(key) : nullptr;
    }

    /** Unsigned integer member in [min, max]; absent leaves @p out. */
    void
    u32(const char *key, unsigned &out, std::uint64_t min,
        std::uint64_t max)
    {
        std::uint64_t v = out;
        u64(key, v, min, max);
        if (ok())
            out = static_cast<unsigned>(v);
    }

    void
    u64(const char *key, std::uint64_t &out, std::uint64_t min,
        std::uint64_t max)
    {
        const json::Value *v = get(key);
        if (!v)
            return;
        if (!v->isNumber() || !v->fitsU64()) {
            fail(memberPath(key), "expected an unsigned integer");
            return;
        }
        const std::uint64_t n = v->asU64();
        if (n < min || n > max) {
            fail(memberPath(key),
                 std::to_string(n) + " is out of range (valid: " +
                     std::to_string(min) + ".." + std::to_string(max) +
                     ")");
            return;
        }
        out = n;
    }

    void
    boolean(const char *key, bool &out)
    {
        const json::Value *v = get(key);
        if (!v)
            return;
        if (!v->isBool()) {
            fail(memberPath(key), "expected true or false");
            return;
        }
        out = v->asBool();
    }

    /** Double member with v > min (or >= when @p orEqual). */
    void
    positiveDouble(const char *key, double &out, bool orEqualZero = false)
    {
        const json::Value *v = get(key);
        if (!v)
            return;
        if (!v->isNumber()) {
            fail(memberPath(key), "expected a number");
            return;
        }
        const double d = v->asDouble();
        if (orEqualZero ? d < 0 : d <= 0) {
            fail(memberPath(key),
                 json::formatDouble(d) + std::string(" is out of range ") +
                     (orEqualZero ? "(must be >= 0)" : "(must be > 0)"));
            return;
        }
        out = d;
    }

    /** Array-of-strings member; absent leaves @p out. */
    void
    strings(const char *key, std::vector<std::string> &out)
    {
        const json::Value *v = get(key);
        if (!v)
            return;
        if (!v->isArray()) {
            fail(memberPath(key), "expected an array of strings");
            return;
        }
        std::vector<std::string> parsed;
        for (const auto &item : v->items()) {
            if (!item.isString()) {
                fail(memberPath(key), "expected an array of strings");
                return;
            }
            parsed.push_back(item.asString());
        }
        out = std::move(parsed);
    }

    /** Non-empty array of unsigned integers, each in [min, max]. */
    void
    u32List(const char *key, std::vector<unsigned> &out, std::uint64_t min,
            std::uint64_t max)
    {
        const json::Value *v = get(key);
        if (!v)
            return;
        if (!v->isArray() || v->items().empty()) {
            fail(memberPath(key),
                 "expected a non-empty array of unsigned integers");
            return;
        }
        std::vector<unsigned> parsed;
        for (const auto &item : v->items()) {
            if (!item.isNumber() || !item.fitsU64()) {
                fail(memberPath(key),
                     "expected a non-empty array of unsigned integers");
                return;
            }
            const std::uint64_t n = item.asU64();
            if (n < min || n > max) {
                fail(memberPath(key),
                     std::to_string(n) + " is out of range (valid: " +
                         std::to_string(min) + ".." + std::to_string(max) +
                         ")");
                return;
            }
            parsed.push_back(static_cast<unsigned>(n));
        }
        out = std::move(parsed);
    }

    std::string
    memberPath(const char *key) const
    {
        return path_.empty() ? key : path_ + "." + key;
    }

    void
    fail(const std::string &where, const std::string &what)
    {
        if (err_->empty())
            *err_ = "spec: " + where + ": " + what;
    }

  private:
    const json::Value &obj_;
    std::string path_;
    std::string *err_;
};

void
parseMachine(const json::Value &v, MachineSpec &m, std::string *err)
{
    ObjReader r(v, "machine",
                {"procs", "buses", "subblocked", "batch_refs", "l1", "l2",
                 "wb_entries", "phys_addr_bits"},
                err);
    if (!r.ok())
        return;
    // Every spec consumer simulates an SMP, so a one-processor machine
    // is rejected here with the dotted path, not by a late SmpSystem
    // fatal.
    r.u32("procs", m.procs, 2, 4096);
    r.u32("buses", m.buses, 1, 256);
    r.boolean("subblocked", m.subblocked);
    r.u32("batch_refs", m.batchRefs, 1, 1u << 24);

    const json::Value *l1 = r.get("l1");
    const json::Value *l2 = r.get("l2");
    if (!r.ok())
        return;
    if ((l1 == nullptr) != (l2 == nullptr)) {
        r.fail("machine", std::string("explicit geometry needs both l1 "
                                      "and l2 (only ") +
                              (l1 ? "l1" : "l2") + " given)");
        return;
    }
    if (l1 && l2) {
        m.hasGeometry = true;
        {
            ObjReader g(*l1, "machine.l1",
                        {"size_bytes", "assoc", "block_bytes"}, err);
            if (!g.ok())
                return;
            g.u64("size_bytes", m.l1.sizeBytes, 1,
                  std::uint64_t(1) << 40);
            g.u32("assoc", m.l1.assoc, 1, 1u << 16);
            g.u32("block_bytes", m.l1.blockBytes, 1, 1u << 16);
        }
        {
            ObjReader g(*l2, "machine.l2",
                        {"size_bytes", "assoc", "block_bytes", "subblocks"},
                        err);
            if (!g.ok())
                return;
            g.u64("size_bytes", m.l2.sizeBytes, 1,
                  std::uint64_t(1) << 40);
            g.u32("assoc", m.l2.assoc, 1, 1u << 16);
            g.u32("block_bytes", m.l2.blockBytes, 1, 1u << 16);
            g.u32("subblocks", m.l2.subblocks, 1, 1u << 8);
        }
        r.u32("wb_entries", m.wbEntries, 1, 1u << 16);
        r.u32("phys_addr_bits", m.physAddrBits, 16, 64);
        // Keep the derived flag honest even when the author forgot it:
        // explicit geometry is authoritative.
        m.subblocked = m.l2.subblocks > 1;
    } else if (r.get("wb_entries") || r.get("phys_addr_bits")) {
        r.fail("machine", "wb_entries/phys_addr_bits need an explicit "
                          "l1 + l2 geometry block");
    }
}

void
parseFuzz(const json::Value &v, FuzzSpec &f, std::string *err)
{
    ObjReader r(v, "fuzz",
                {"seed", "rounds", "refs_per_proc", "audit_every",
                 "randomize_buses", "seconds"},
                err);
    if (!r.ok())
        return;
    std::uint64_t seed = f.seed;
    r.u64("seed", seed, 0, std::numeric_limits<std::uint64_t>::max());
    f.seed = seed;
    r.u32("rounds", f.rounds, 1, 1u << 24);
    r.u64("refs_per_proc", f.refsPerProc, 1, std::uint64_t(1) << 40);
    r.u64("audit_every", f.auditEvery, 0, std::uint64_t(1) << 40);
    r.boolean("randomize_buses", f.randomizeBuses);
    r.positiveDouble("seconds", f.seconds, /*orEqualZero=*/true);
}

} // namespace

ExperimentSpec
ExperimentSpec::fromJson(const json::Value &v, std::string *err)
{
    ExperimentSpec spec;
    if (!err)
        panic("ExperimentSpec::fromJson needs an error sink");
    err->clear();

    ObjReader root(v, "",
                   {"jetty_spec", "machine", "workload", "filters",
                    "sweep", "bench", "fuzz"},
                   err);
    if (!root.ok())
        return spec;

    const json::Value *ver = root.get("jetty_spec");
    if (!ver) {
        root.fail("jetty_spec",
                  "missing (a spec file must declare \"jetty_spec\": " +
                      std::to_string(kVersion) + ")");
        return spec;
    }
    if (!ver->isNumber() || !ver->fitsI64() || ver->asI64() != kVersion) {
        root.fail("jetty_spec",
                  "unsupported version (this build reads version " +
                      std::to_string(kVersion) + ")");
        return spec;
    }

    if (const json::Value *m = root.get("machine")) {
        spec.hasMachine = true;
        parseMachine(*m, spec.machine, err);
    }
    if (!err->empty())
        return spec;

    if (const json::Value *w = root.get("workload")) {
        ObjReader r(*w, "workload", {"apps", "trace_files", "scale"}, err);
        if (!r.ok())
            return spec;
        r.strings("apps", spec.apps);
        r.strings("trace_files", spec.traceFiles);
        r.positiveDouble("scale", spec.scale);
        if (!r.ok())
            return spec;
        if (!spec.apps.empty() && !spec.traceFiles.empty()) {
            // expand()/bench prefer trace_files, so accepting both
            // would silently drop the apps half of the workload.
            r.fail("workload",
                   "apps and trace_files are mutually exclusive (one "
                   "workload per spec)");
            return spec;
        }
        // App names resolve through the same lookup the simulator uses,
        // so a typo fails at parse time, not mid-sweep.
        for (const auto &name : spec.apps) {
            if (!trace::appKnown(name)) {
                r.fail("workload.apps",
                       "unknown application '" + name +
                           "' (see `jetty_cli apps`)");
                return spec;
            }
        }
    }

    if (const json::Value *f = root.get("filters")) {
        if (!f->isArray()) {
            root.fail("filters",
                      "expected an array of filter spec strings");
            return spec;
        }
        for (const auto &item : f->items()) {
            if (!item.isString()) {
                root.fail("filters",
                          "expected an array of filter spec strings");
                return spec;
            }
            const std::string &s = item.asString();
            if (!filter::isValidFilterSpec(s)) {
                root.fail("filters",
                          filter::FilterRegistry::instance()
                              .describeFailure(s));
                return spec;
            }
            spec.filters.push_back(s);
        }
    }

    if (const json::Value *s = root.get("sweep")) {
        ObjReader r(*s, "sweep", {"procs", "buses"}, err);
        if (!r.ok())
            return spec;
        r.u32List("procs", spec.sweepProcs, 2, 4096);
        r.u32List("buses", spec.sweepBuses, 1, 256);
        if (!r.ok())
            return spec;
    }

    if (const json::Value *b = root.get("bench")) {
        ObjReader r(*b, "bench", {"repeat"}, err);
        if (!r.ok())
            return spec;
        r.u32("repeat", spec.benchRepeat, 1, 1u << 16);
        if (!r.ok())
            return spec;
    }

    if (const json::Value *f = root.get("fuzz")) {
        spec.hasFuzz = true;
        parseFuzz(*f, spec.fuzz, err);
        if (!err->empty())
            return spec;
    }
    return spec;
}

ExperimentSpec
ExperimentSpec::parse(const std::string &text, std::string *err)
{
    if (!err)
        panic("ExperimentSpec::parse needs an error sink");
    std::string parse_err;
    const json::Value v = json::parse(text, &parse_err);
    if (!parse_err.empty()) {
        *err = "spec: " + parse_err;
        return ExperimentSpec();
    }
    return fromJson(v, err);
}

sim::SmpConfig
ExperimentSpec::smpConfig() const
{
    sim::SmpConfig cfg = machine.toSmpConfig();
    cfg.filterSpecs = filters;
    return cfg;
}

std::vector<experiments::RunRequest>
ExperimentSpec::expand() const
{
    const std::vector<unsigned> procsAxis =
        sweepProcs.empty() ? std::vector<unsigned>{machine.procs}
                           : sweepProcs;
    const std::vector<unsigned> busAxis =
        sweepBuses.empty() ? std::vector<unsigned>{machine.buses}
                           : sweepBuses;

    std::vector<experiments::RunRequest> requests;
    for (unsigned nprocs : procsAxis) {
        for (unsigned buses : busAxis) {
            experiments::SystemVariant variant = machine.toVariant();
            variant.nprocs = nprocs;
            variant.snoopBuses = buses;
            if (!traceFiles.empty()) {
                experiments::RunRequest req;
                req.variant = variant;
                req.filterSpecs = filters;
                req.traceFiles = traceFiles;
                req.app.name = "replay";
                req.app.abbrev = "rp";
                requests.push_back(std::move(req));
                continue;
            }
            for (const auto &name : apps) {
                experiments::RunRequest req;
                req.app = trace::appByName(name);
                req.variant = variant;
                req.filterSpecs = filters;
                req.accessScale = scale;
                requests.push_back(std::move(req));
            }
        }
    }
    return requests;
}

} // namespace jetty::api
