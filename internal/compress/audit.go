package compress

import "tqec/internal/place"

// AuditSchedule checks the time-ordering of the compiled placement
// against the ICM measurement constraints (see place.Result.AuditSchedule);
// a result without a placement audits to zero.
func (r *Result) AuditSchedule() place.ScheduleAudit { return r.Placement.AuditSchedule() }
