#include "api/experiment_spec.hh"

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

/** Double member @p key that must exceed 0 (or, @p orZero, reach it). */
void
readPositive(json::FieldReader &r, const json::Value &o, const char *key,
             double &out, bool orZero = false)
{
    double d = out;
    r.dbl(o, key, d);
    if (r.get(o, key) && (orZero ? d < 0 : d <= 0))
        r.fail(key, json::formatDouble(d) + " is out of range " +
                        (orZero ? "(must be >= 0)" : "(must be > 0)"));
    if (r.ok())
        out = d;
}

void
readMachine(json::FieldReader &r, const json::Value &v, MachineSpec &m)
{
    r.only(v, {"procs", "buses", "subblocked", "batch_refs", "l1", "l2",
               "wb_entries", "phys_addr_bits"});
    // Every spec consumer simulates an SMP, so a one-processor machine
    // is rejected here with the dotted path, not by a late SmpSystem
    // fatal.
    r.u32(v, "procs", m.procs, 2, 4096);
    r.u32(v, "buses", m.buses, 1, 256);
    r.boolean(v, "subblocked", m.subblocked);
    r.u32(v, "batch_refs", m.batchRefs, 1, 1u << 24);

    const bool l1 = r.get(v, "l1") != nullptr;
    const bool l2 = r.get(v, "l2") != nullptr;
    if (l1 != l2) {
        r.fail("", std::string("explicit geometry needs both l1 and l2 "
                               "(only ") +
                       (l1 ? "l1" : "l2") + " given)");
    }
    if (!l1 || !l2) {
        if (r.get(v, "wb_entries") || r.get(v, "phys_addr_bits"))
            r.fail("", "wb_entries/phys_addr_bits need an explicit l1 + "
                       "l2 geometry block");
        return;
    }
    m.hasGeometry = true;
    r.nested(v, "l1", [&](const json::Value &g) {
        r.only(g, {"size_bytes", "assoc", "block_bytes"});
        r.u64(g, "size_bytes", m.l1.sizeBytes, 1, std::uint64_t(1) << 40);
        r.u32(g, "assoc", m.l1.assoc, 1, 1u << 16);
        r.u32(g, "block_bytes", m.l1.blockBytes, 1, 1u << 16);
    });
    r.nested(v, "l2", [&](const json::Value &g) {
        r.only(g, {"size_bytes", "assoc", "block_bytes", "subblocks"});
        r.u64(g, "size_bytes", m.l2.sizeBytes, 1, std::uint64_t(1) << 40);
        r.u32(g, "assoc", m.l2.assoc, 1, 1u << 16);
        r.u32(g, "block_bytes", m.l2.blockBytes, 1, 1u << 16);
        r.u32(g, "subblocks", m.l2.subblocks, 1, 1u << 8);
    });
    r.u32(v, "wb_entries", m.wbEntries, 1, 1u << 16);
    r.u32(v, "phys_addr_bits", m.physAddrBits, 16, 64);
    // Keep the derived flag honest even when the author forgot it:
    // explicit geometry is authoritative.
    m.subblocked = m.l2.subblocks > 1;
}

void
readFuzz(json::FieldReader &r, const json::Value &v, FuzzSpec &f)
{
    r.only(v, {"seed", "rounds", "refs_per_proc", "audit_every",
               "randomize_buses", "seconds"});
    r.u64(v, "seed", f.seed);
    r.u32(v, "rounds", f.rounds, 1, 1u << 24);
    r.u64(v, "refs_per_proc", f.refsPerProc, 1, std::uint64_t(1) << 40);
    r.u64(v, "audit_every", f.auditEvery, 0, std::uint64_t(1) << 40);
    r.boolean(v, "randomize_buses", f.randomizeBuses);
    readPositive(r, v, "seconds", f.seconds, /*orZero=*/true);
}

} // namespace

ExperimentSpec
ExperimentSpec::fromJson(const json::Value &v, std::string *err)
{
    ExperimentSpec spec;
    if (!err)
        panic("ExperimentSpec::fromJson needs an error sink");

    // One reader walks the whole document; absent members keep their
    // defaults, and its dotted paths become "spec: <path>: <what>".
    json::FieldReader r("", json::FieldReader::Absent::Keep);
    r.only(v, {"jetty_spec", "machine", "workload", "filters", "sweep",
               "bench", "fuzz"});
    // A version of any other value or type is unsupported, not malformed.
    json::FieldReader version("");
    std::uint64_t ignored = 0;
    version.u64(v, "jetty_spec", ignored, kVersion, kVersion);
    const std::string want = std::to_string(kVersion);
    if (!r.get(v, "jetty_spec"))
        r.fail("jetty_spec",
               "missing (a spec file must declare \"jetty_spec\": " + want +
                   ")");
    else if (!version.ok())
        r.fail("jetty_spec",
               "unsupported version (this build reads version " + want +
                   ")");

    r.nested(v, "machine", [&](const json::Value &m) {
        spec.hasMachine = true;
        readMachine(r, m, spec.machine);
    });
    r.nested(v, "workload", [&](const json::Value &w) {
        r.only(w, {"apps", "trace_files", "scale"});
        r.strVector(w, "apps", spec.apps);
        r.strVector(w, "trace_files", spec.traceFiles);
        readPositive(r, w, "scale", spec.scale);
        // expand()/bench prefer trace_files, so accepting both would
        // silently drop the apps half of the workload.
        if (!spec.apps.empty() && !spec.traceFiles.empty())
            r.fail("", "apps and trace_files are mutually exclusive (one "
                       "workload per spec)");
        // App names resolve through the same lookup the simulator
        // uses, so a typo fails at parse time, not mid-sweep.
        for (const auto &name : spec.apps) {
            if (!trace::appKnown(name))
                r.fail("apps", "unknown application '" + name +
                                   "' (see `jetty_cli apps`)");
        }
    });
    r.strVector(v, "filters", spec.filters);
    for (const auto &f : spec.filters) {
        if (!filter::isValidFilterSpec(f))
            r.fail("filters",
                   filter::FilterRegistry::instance().describeFailure(f));
    }
    r.nested(v, "sweep", [&](const json::Value &s) {
        r.only(s, {"procs", "buses"});
        r.u32Vector(s, "procs", spec.sweepProcs, 2, 4096);
        r.u32Vector(s, "buses", spec.sweepBuses, 1, 256);
    });
    r.nested(v, "bench", [&](const json::Value &b) {
        r.only(b, {"repeat"});
        r.u32(b, "repeat", spec.benchRepeat, 1, 1u << 16);
    });
    r.nested(v, "fuzz", [&](const json::Value &f) {
        spec.hasFuzz = true;
        readFuzz(r, f, spec.fuzz);
    });
    *err = r.ok() ? "" : "spec: " + r.error();
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
