package sched

import "mudi/internal/model"

// classBudget is the most training tasks a device admits next to a
// service of each class: critical devices admit none, standard one
// task, the droppable tiers progressively more. Unclassed devices (and
// any class outside the table) are unbudgeted here; the global
// MaxTrainPerGPU cap in the device-selection policy still applies.
var classBudget = [...]int{
	model.ClassUnset:      -1,
	model.ClassCritical:   0,
	model.ClassStandard:   1,
	model.ClassSheddable:  2,
	model.ClassBatch:      3,
	model.ClassBackground: 4,
}

// ClassScore rates a device for one more training task from the SLO
// class of its resident service and the count of training tasks
// already resident. ok=false when the class's budget is exhausted.
// Otherwise the score is higher for less-critical residents: unset >
// background > batch > sheddable > standard > critical, so a classless
// device beats even a background-class one.
func ClassScore(class model.SLOClass, residents int) (score float64, ok bool) {
	if int(class) < len(classBudget) {
		if b := classBudget[class]; b >= 0 && residents >= b {
			return 0, false
		}
	}
	return float64(model.MaxClassRank + 1 - class.Rank()), true
}
