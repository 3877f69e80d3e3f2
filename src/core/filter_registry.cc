#include "core/filter_registry.hh"

#include <algorithm>

#include "core/exclude_jetty.hh"
#include "core/hybrid_jetty.hh"
#include "core/include_jetty.hh"
#include "core/null_filter.hh"
#include "core/region_filter.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"

namespace jetty::filter
{

FilterRegistry &
FilterRegistry::instance()
{
    static FilterRegistry registry;
    return registry;
}

void
FilterRegistry::registerFamily(FilterFamily family)
{
    if (!family.parse)
        fatal("FilterRegistry: family '" + family.key + "' has no parser");
    if (this->family(family.key))
        fatal("FilterRegistry: duplicate family '" + family.key + "'");
    families_.push_back(std::move(family));
}

bool
FilterRegistry::tryMake(const std::string &raw, const AddressMap &amap,
                        SnoopFilterPtr *out) const
{
    const std::string spec = trim(raw);
    if (spec.empty())
        return false;
    for (const auto &family : families_) {
        if (family.parse(spec, amap, out))
            return true;
    }
    return false;
}

std::vector<std::string>
FilterRegistry::listFamilies() const
{
    std::vector<std::string> keys;
    keys.reserve(families_.size());
    for (const auto &family : families_)
        keys.push_back(family.key);
    std::sort(keys.begin(), keys.end());
    return keys;
}

const FilterFamily *
FilterRegistry::family(const std::string &key) const
{
    for (const auto &f : families_) {
        if (f.key == key)
            return &f;
    }
    return nullptr;
}

std::string
FilterRegistry::describeFailure(const std::string &raw) const
{
    std::string valid;
    for (const auto &key : listFamilies()) {
        if (!valid.empty())
            valid += ", ";
        valid += key;
    }

    const std::string spec = trim(raw);
    if (spec.empty())
        return "empty filter spec; valid families: " + valid;

    // The family token is everything before the first parameter
    // delimiter; spellings are case-insensitive ("ej-32x4" means EJ).
    const std::string head =
        toUpper(spec.substr(0, spec.find_first_of("-(")));
    if (const FilterFamily *f = family(head)) {
        return "malformed " + f->key + " spec '" + spec + "': expected " +
               f->grammar + " (e.g. " + f->example + ")";
    }
    return "unknown filter family '" + head + "' in spec '" + spec +
           "'; valid families: " + valid;
}

// ---- Built-in families ----------------------------------------------
//
// Each registrar below is the single place its family's grammar lives.
// They sit in this translation unit (rather than next to each filter
// class) because libjetty is a static archive: an object file that nothing
// references is never linked, and its registrars would silently not run.
// filter_spec.cc references the registry, so this TU is always pulled in.

namespace
{

/** Parse "AxB" or "AxBxC" numeric tuples. */
bool
parseTuple(const std::string &body, std::vector<unsigned> &out)
{
    out.clear();
    for (const auto &part : split(body, 'x')) {
        unsigned v = 0;
        if (!parseUnsigned(part, v))
            return false;
        out.push_back(v);
    }
    return true;
}

bool
parseNull(const std::string &spec, const AddressMap &, SnoopFilterPtr *out)
{
    if (toUpper(spec) != "NULL")
        return false;
    if (out)
        *out = std::make_unique<NullFilter>();
    return true;
}

bool
parseExclude(const std::string &spec, const AddressMap &amap,
             SnoopFilterPtr *out)
{
    if (!startsWith(spec, "EJ-"))
        return false;
    std::vector<unsigned> t;
    if (!parseTuple(spec.substr(3), t) || t.size() != 2)
        return false;
    ExcludeJettyConfig cfg;
    cfg.sets = t[0];
    cfg.assoc = t[1];
    if (out)
        *out = std::make_unique<ExcludeJetty>(cfg, amap);
    return true;
}

bool
parseVectorExclude(const std::string &spec, const AddressMap &amap,
                   SnoopFilterPtr *out)
{
    if (!startsWith(spec, "VEJ-"))
        return false;
    const auto parts = split(spec.substr(4), '-');
    if (parts.size() != 2)
        return false;
    std::vector<unsigned> t;
    unsigned vec = 0;
    if (!parseTuple(parts[0], t) || t.size() != 2 ||
        !parseUnsigned(parts[1], vec)) {
        return false;
    }
    ExcludeJettyConfig cfg;
    cfg.sets = t[0];
    cfg.assoc = t[1];
    cfg.vectorBits = vec;
    if (out && vec == 0)  // width 0 would be the plain EJ
        fatal("VectorExcludeJetty: bad geometry");
    if (out)
        *out = std::make_unique<ExcludeJetty>(cfg, amap);
    return true;
}

bool
parseInclude(const std::string &spec, const AddressMap &amap,
             SnoopFilterPtr *out)
{
    if (!startsWith(spec, "IJ-"))
        return false;
    std::string body = spec.substr(3);
    IjIndexBase base = IjIndexBase::Block;
    if (!body.empty() && (body.back() == 'u' || body.back() == 'U')) {
        base = IjIndexBase::Unit;
        body.pop_back();
    }
    std::vector<unsigned> t;
    if (!parseTuple(body, t) || t.size() != 3)
        return false;
    IncludeJettyConfig cfg;
    cfg.entryBits = t[0];
    cfg.arrays = t[1];
    cfg.skipBits = t[2];
    cfg.base = base;
    if (out)
        *out = std::make_unique<IncludeJetty>(cfg, amap);
    return true;
}

bool
parseRegion(const std::string &spec, const AddressMap &amap,
            SnoopFilterPtr *out)
{
    if (!startsWith(spec, "RF-"))
        return false;
    std::vector<unsigned> t;
    if (!parseTuple(spec.substr(3), t) || t.size() != 2)
        return false;
    RegionFilterConfig cfg;
    cfg.entryBits = t[0];
    cfg.regionBits = t[1];
    if (out)
        *out = std::make_unique<RegionFilter>(cfg, amap);
    return true;
}

bool
parseHybrid(const std::string &spec, const AddressMap &amap,
            SnoopFilterPtr *out)
{
    if (!startsWith(spec, "HJ(") || spec.back() != ')')
        return false;
    const std::string inner = spec.substr(3, spec.size() - 4);
    // Split at the top-level comma (components contain no parens).
    const auto comma = inner.find(',');
    if (comma == std::string::npos)
        return false;
    const auto &registry = FilterRegistry::instance();
    SnoopFilterPtr ij, ej;
    if (!registry.tryMake(inner.substr(0, comma), amap, out ? &ij : nullptr))
        return false;
    if (!registry.tryMake(inner.substr(comma + 1), amap,
                          out ? &ej : nullptr)) {
        return false;
    }
    if (out)
        *out = std::make_unique<HybridJetty>(std::move(ij), std::move(ej));
    return true;
}

const FamilyRegistrar registerNull({
    "NULL",
    "NULL",
    "no filter: every snoop probes the L2 tags (baseline)",
    "NULL",
    parseNull,
});

const FamilyRegistrar registerExclude({
    "EJ",
    "EJ-<sets>x<assoc>",
    "exclude-JETTY: caches addresses known absent from the local L2",
    "EJ-32x4",
    parseExclude,
});

const FamilyRegistrar registerVectorExclude({
    "VEJ",
    "VEJ-<sets>x<assoc>-<vec>",
    "vector exclude-JETTY: EJ entries carry a presence bit-vector",
    "VEJ-32x4-8",
    parseVectorExclude,
});

const FamilyRegistrar registerInclude({
    "IJ",
    "IJ-<entryBits>x<arrays>x<skipBits>[u]",
    "include-JETTY: counting Bloom-style superset of the L2 contents "
    "('u' = unit-granular indices)",
    "IJ-10x4x7",
    parseInclude,
});

const FamilyRegistrar registerRegion({
    "RF",
    "RF-<entryBits>x<regionBits>",
    "coarse region filter (extension): 2^entryBits counters over "
    "2^regionBits-byte regions",
    "RF-10x12",
    parseRegion,
});

const FamilyRegistrar registerHybrid({
    "HJ",
    "HJ(<include-spec>,<exclude-spec>)",
    "hybrid JETTY: filters when either component filters",
    "HJ(IJ-10x4x7,EJ-32x4)",
    parseHybrid,
});

} // namespace

} // namespace jetty::filter
