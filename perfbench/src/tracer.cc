#include "tracer.hh"

#include <map>

namespace perfbench
{

namespace
{

/** Innermost open span of this thread (the implicit parent). */
thread_local std::uint64_t t_current = 0;

} // namespace

Tracer::Tracer(bool enabled, std::string workload)
    : enabled_(enabled), workload_(std::move(workload)),
      epoch_(std::chrono::steady_clock::now())
{
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::uint64_t
Tracer::begin(const char *layer, const char *name, std::uint64_t parent)
{
    if (!enabled_)
        return 0;
    Rec r;
    r.parent = parent;
    r.layer = layer;
    r.name = name;
    r.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(r);
    return spans_.size();
}

void
Tracer::end(std::uint64_t id)
{
    if (id == 0)
        return;
    const std::int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].endNs = t;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

jetty::json::Value
Tracer::toJson() const
{
    using jetty::json::Value;
    std::lock_guard<std::mutex> lock(mu_);

    std::vector<std::int64_t> childNs(spans_.size() + 1, 0);
    for (const Rec &r : spans_) {
        if (r.parent != 0 && r.endNs >= 0)
            childNs[r.parent] += r.endNs - r.startNs;
    }

    struct Layer
    {
        std::uint64_t count = 0;
        std::int64_t totalNs = 0;
        std::int64_t selfNs = 0;
    };
    std::map<std::string, Layer> layers;
    Value arr = Value::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Rec &r = spans_[i];
        const std::int64_t dur = r.endNs >= 0 ? r.endNs - r.startNs : 0;
        // Children on other threads may overlap each other; self time
        // never goes below zero.
        const std::int64_t self = std::max<std::int64_t>(
            0, dur - childNs[i + 1]);
        Layer &l = layers[r.layer];
        ++l.count;
        l.totalNs += dur;
        l.selfNs += self;

        Value s = Value::object();
        s.set("id", static_cast<std::uint64_t>(i + 1));
        s.set("parent", r.parent);
        s.set("workload", workload_);
        s.set("layer", r.layer);
        s.set("name", r.name);
        s.set("start_ns", static_cast<long long>(r.startNs));
        s.set("end_ns", static_cast<long long>(r.endNs));
        arr.push(std::move(s));
    }

    Value summary = Value::object();
    for (const auto &[name, l] : layers) {
        Value row = Value::object();
        row.set("count", l.count);
        row.set("total_ms", static_cast<double>(l.totalNs) / 1e6);
        row.set("self_ms", static_cast<double>(l.selfNs) / 1e6);
        summary.set(name, std::move(row));
    }

    Value doc = Value::object();
    doc.set("workload", workload_);
    doc.set("layers", std::move(summary));
    doc.set("spans", std::move(arr));
    return doc;
}

Span::Span(Tracer &tracer, const char *layer, const char *name)
    : Span(tracer, layer, name, t_current)
{
}

Span::Span(Tracer &tracer, const char *layer, const char *name,
           std::uint64_t parent)
    : tracer_(tracer)
{
    if (!tracer_.enabled())
        return;
    id_ = tracer_.begin(layer, name, parent);
    saved_ = t_current;
    t_current = id_;
}

Span::~Span()
{
    if (id_ == 0)
        return;
    tracer_.end(id_);
    t_current = saved_;
}

} // namespace perfbench
