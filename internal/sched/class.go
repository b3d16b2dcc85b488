package sched

import "mudi/internal/model"

// SLO-class-aware score plugins. Both consult DeviceView.ServiceClass,
// the class of the inference service resident on the device; they are
// inert (score 0, no veto) on unclassed devices, so a classless fleet
// running through a framework that happens to include them behaves
// exactly as before.

// ClassPriorityPlugin steers training placement away from devices
// hosting high-criticality inference: the lower the resident service's
// class rank, the higher the device scores. Classless devices (rank 0)
// score highest of all — a free device beats even a background-class
// one.
type ClassPriorityPlugin struct{}

// Name implements ScorePlugin.
func (ClassPriorityPlugin) Name() string { return "class-priority" }

// Score implements ScorePlugin. Higher for less-critical residents:
// unset > background > batch > sheddable > standard > critical.
func (ClassPriorityPlugin) Score(_ *model.TrainingTask, dev *DeviceView) float64 {
	return float64(model.MaxClassRank + 1 - dev.ServiceClass.Rank())
}

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

// ClassBudgetPlugin enforces the per-class interference budget: it
// vetoes a device once its co-located training count reaches the
// budget of the resident service's class.
type ClassBudgetPlugin struct{}

// Name implements ScorePlugin.
func (ClassBudgetPlugin) Name() string { return "class-budget" }

// Score implements ScorePlugin: -1 (veto) when the device's resident
// class has exhausted its training budget, 0 otherwise.
func (ClassBudgetPlugin) Score(_ *model.TrainingTask, dev *DeviceView) float64 {
	if int(dev.ServiceClass) >= len(classBudget) {
		return 0
	}
	b := classBudget[dev.ServiceClass]
	if b >= 0 && len(dev.ResidentTasks) >= b {
		return -1
	}
	return 0
}
