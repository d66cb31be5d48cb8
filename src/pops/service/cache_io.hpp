#pragma once
// Full-fidelity archives of cached optimization results.
//
// service::CacheJournal persists a ResultCache across processes as one
// JSON record per entry; this header supplies the record payloads.
// archive_netlist/archive_report capture the optimized netlist and the
// complete PipelineReport — every pass report, the power section, the Vt
// mix and each protocol pass's per-path decisions — and the restore_*
// twins rebuild them so a replayed entry is bit-identical to the run that
// stored it.
//
// Report doubles that may be non-finite are archived as the strings
// "inf"/"-inf"/"nan" instead of unrepresentable JSON numbers. Integer
// fields are range-checked as doubles before any cast.
//
// Payload schema, version 4: a per-path record is the eight fields of
// core::PathDecision. Versions 2 and 3 archived the whole sized path
// under a "sizing" sub-tree; restore_report still reads those records,
// keeping only the delay and total area the decision needs.

#include <cstddef>
#include <string>
#include <vector>

#include "pops/api/pipeline.hpp"
#include "pops/netlist/netlist.hpp"
#include "pops/util/json.hpp"

namespace pops::service {

/// Outcome of replaying persisted entries: what was restored and every
/// record-level problem (skipped records), in file order.
struct CacheLoadReport {
  std::size_t entries_loaded = 0;
  std::size_t initial_delays_loaded = 0;
  std::vector<std::string> problems;
};

/// Full-fidelity netlist archive: name, fresh-name counter, and every raw
/// node record. restore_netlist rebuilds via Netlist::from_nodes (fanins
/// may point forward in an optimized netlist) and validates structure.
util::Json archive_netlist(const netlist::Netlist& nl);
netlist::Netlist restore_netlist(const util::Json& j,
                                 const liberty::Library& lib);

/// Full-fidelity PipelineReport archive: a restored report is
/// bit-identical to the stored one, field by field. Throws
/// std::invalid_argument on schema violations.
util::Json archive_report(const api::PipelineReport& report);
api::PipelineReport restore_report(const util::Json& j);

}  // namespace pops::service
