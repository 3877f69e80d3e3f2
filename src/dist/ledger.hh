/**
 * @file
 * The campaign resume ledger: a directory journaling every completed
 * cell, so an interrupted distributed sweep resumes without
 * re-simulating (or even re-dispatching) finished cells.
 *
 * The ledger *is* a disk RunCache tier (experiments/disk_cache.hh)
 * rooted at the ledger directory: one atomic entry per canonical cell
 * key, whose `covered` set names the filters the journaled result
 * holds. A ledger directory and a `--cache-dir` root are therefore the
 * same kind of store, and one directory can serve as both. The
 * robustness contract is the disk tier's: corrupt, truncated, or
 * wrong-version entries — including entries in the ledger's earlier
 * shard-response envelope — read as misses and are unlinked, and no
 * failure here is ever fatal to the campaign. A ledger never evicts on
 * its own publishes.
 */

#ifndef JETTY_DIST_LEDGER_HH
#define JETTY_DIST_LEDGER_HH

#include <memory>
#include <set>
#include <string>

#include "dist/shard.hh"
#include "experiments/disk_cache.hh"

namespace jetty::dist
{

class Ledger
{
  public:
    /** An unopened ledger; every operation is a no-op miss. */
    Ledger() = default;

    /** Open (creating directories as needed) the ledger at @p dir.
     *  @return "" on success, else the diagnostic. */
    std::string open(const std::string &dir);

    bool isOpen() const { return store_ != nullptr; }
    const std::string &dir() const { return dir_; }

    /**
     * Load the journaled cell for canonical key @p key as a one-cell ok
     * ShardResponse; @p covered, when non-null, receives the filter
     * names the cell holds. @return true with @p out filled on a hit.
     */
    bool lookup(const std::string &key, ShardResponse &out,
                std::set<std::string> *covered = nullptr);

    /** Journal @p resp's cell for @p key atomically. Best effort: an
     *  I/O failure is returned for logging but must not stop the
     *  campaign. @return "" on success. */
    std::string publish(const std::string &key, const ShardResponse &resp);

  private:
    std::string dir_;
    std::unique_ptr<experiments::DiskCache> store_;
};

} // namespace jetty::dist

#endif // JETTY_DIST_LEDGER_HH
