// Sub-plan enumeration for the in-optimizer workload (paper section 4.7):
// a cost-based optimizer asks the cardinality estimator about every
// connected sub-plan of the query it is planning.

#ifndef PERFBENCH_SUBPLANS_H_
#define PERFBENCH_SUBPLANS_H_

#include <vector>

#include "db/schema.h"
#include "exec/query.h"

namespace perfbench {

/// Every connected sub-plan of `query`: each non-empty subset of its tables
/// that the query's own joins connect, with those joins and the predicates
/// on those tables, canonicalized. Single tables count. On the star schema
/// a query with k joins (hub plus k spokes) has 2^k + k sub-plans: 6, 11
/// and 20 for 2, 3 and 4 joins.
std::vector<lc::Query> ConnectedSubplans(const lc::Query& query,
                                         const lc::Schema& schema);

}  // namespace perfbench

#endif  // PERFBENCH_SUBPLANS_H_
