package mudi_test

import (
	"fmt"
	"log"

	"mudi"
)

// ExampleSystem_Simulate runs the offline pipeline and a small
// end-to-end simulation: six inference services on six GPUs,
// multiplexed with eight training-task arrivals.
func ExampleSystem_Simulate() {
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Simulate(mudi.SimOptions{
		Devices: 6, Tasks: 8, MeanGapSec: 5, IterScale: 0.001,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy=%s completed=%d/%d\n", res.Policy, res.Completed, res.Admitted)
	// Output: policy=mudi completed=8/8
}

// ExampleSystem_BaselinePolicy compares Mudi against one of the
// paper's baseline systems on the same trace.
func ExampleSystem_BaselinePolicy() {
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	gslice, err := sys.BaselinePolicy(mudi.BaselineGSLICE)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Simulate(mudi.SimOptions{
		Policy: gslice, Devices: 6, Tasks: 6, MeanGapSec: 5, IterScale: 0.001,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy=%s completed=%d\n", res.Policy, res.Completed)
	// Output: policy=gslice completed=6
}

// ExampleNewArchTracer extracts a network-architecture vector by
// tracing one mini-batch's module invocations — the §4.2 path for
// dynamic-graph models.
func ExampleNewArchTracer() {
	tr := mudi.NewArchTracer()
	for step := 0; step < 3; step++ { // repeat invocations deduplicate
		tr.OnModule("conv1", "Conv2d")
		tr.OnModule("bn1", "BatchNorm2d")
		tr.OnModule("relu", "ReLU")
		tr.OnModule("head", "Linear")
	}
	arch := tr.Arch()
	fmt.Println(arch.Total(), "distinct layers")
	// Output: 4 distinct layers
}
