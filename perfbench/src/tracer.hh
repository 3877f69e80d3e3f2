/**
 * @file
 * In-memory span recorder of the traced benchmark run.
 *
 * Spans are recorded by the benchmark's own files around each call into
 * a layer of the program (name, layer, start, end, parent span, workload
 * id); nothing inside the library is instrumented. Spans stay in memory
 * and are written out once, at exit, with a per-layer self-time summary
 * (a span's duration minus the part its child spans cover).
 *
 * Disabled tracers record nothing: Span construction is one branch.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hh"

namespace perfbench
{

class Tracer
{
  public:
    Tracer(bool enabled, std::string workload);

    bool enabled() const { return enabled_; }

    /** Switch recording on or off; call only while no Span is open on
     *  another thread. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under @p parent (0 = root). @return its id (0 when
     *  disabled). */
    std::uint64_t begin(const char *layer, const char *name,
                        std::uint64_t parent);
    void end(std::uint64_t id);

    /** Spans recorded so far. */
    std::size_t size() const;

    /** The dump: every span plus the per-layer count/total/self time. */
    jetty::json::Value toJson() const;

  private:
    struct Rec
    {
        std::uint64_t parent = 0;
        const char *layer = "";
        const char *name = "";
        std::int64_t startNs = 0;
        std::int64_t endNs = -1;
    };

    std::int64_t nowNs() const;

    bool enabled_;
    const std::string workload_;
    const std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Rec> spans_;  //!< id = index + 1
};

/**
 * RAII span. Nested Spans on one thread parent each other automatically;
 * a Span opened on a fresh thread takes an explicit parent.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *layer, const char *name);
    Span(Tracer &tracer, const char *layer, const char *name,
         std::uint64_t parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::uint64_t id_ = 0;
    std::uint64_t saved_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
