#ifndef BDBMS_EXEC_EXEC_CONTEXT_H_
#define BDBMS_EXEC_EXEC_CONTEXT_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "annot/annotation_manager.h"
#include "auth/access_control.h"
#include "auth/approval.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "dep/dependency_manager.h"
#include "prov/provenance.h"
#include "table/table.h"
#include "txn/mvcc.h"
#include "txn/undo_log.h"

namespace bdbms {

// Rows deleted under ADD ANNOTATION ... ON (DELETE ...) are preserved here
// together with the annotation explaining the deletion (paper §3.2: "the
// deleted tuples will be stored in separate log tables along with the
// annotation that specifies why these tuples have been deleted").
struct DeletionLogEntry {
  RowId row;
  Row old_values;
  std::string annotation;  // XML body ("" for plain DELETEs)
  std::string issuer;
  uint64_t timestamp;
};

// Everything the executor and planner need from the Database facade.
struct ExecContext {
  Catalog* catalog = nullptr;
  AnnotationManager* annotations = nullptr;
  ProvenanceManager* provenance = nullptr;
  DependencyManager* dependencies = nullptr;
  ApprovalManager* approvals = nullptr;
  AccessControl* access = nullptr;
  LogicalClock* clock = nullptr;
  std::function<Result<Table*>(const std::string&)> tables;
  std::function<Status(const TableSchema&)> create_table;
  std::function<Status(const std::string&)> drop_table;
  std::map<std::string, std::vector<DeletionLogEntry>>* deletion_log = nullptr;
  // Set by the Database facade while a statement runs under rollback
  // protection; mutation paths that live in the executor itself (the
  // deletion log) record their compensations here.
  UndoLog* undo = nullptr;
  // The statement's snapshot, never null: every scan operator resolves
  // row/annotation visibility against it. A mutating statement's snapshot
  // also carries its transaction id, so it sees its own writes.
  const MvccSnapshot* snapshot = nullptr;
};

}  // namespace bdbms

#endif  // BDBMS_EXEC_EXEC_CONTEXT_H_
