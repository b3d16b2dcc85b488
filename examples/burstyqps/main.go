// Bursty QPS case study (the paper's Fig. 16): one ResNet50 inference
// service shares a GPU with a YOLOv5 training task; at t=100 s the
// request rate bursts to 3x, at t=200 s it recovers. Watch Mudi adapt
// the batching size and GPU partition, swap training memory to the
// host during the burst, and reclaim it afterwards.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"mudi"
)

func main() {
	if err := run(os.Stdout, 2500); err != nil {
		log.Fatal(err)
	}
}

// run replays the burst case study with the given training length;
// factored out of main so tests can drive a shorter task.
func run(w io.Writer, iters int) error {
	sys, err := mudi.NewSystem(mudi.SystemConfig{Seed: 7})
	if err != nil {
		return fmt.Errorf("offline pipeline: %w", err)
	}

	// Hand-craft the arrival: YOLOv5 lands at t=10 s and trains across
	// the burst window.
	var yolo mudi.TrainingTask
	for _, t := range mudi.Tasks() {
		if t.Name == "YOLOv5" {
			yolo = t
		}
	}
	arrivals := []mudi.TaskArrival{{ID: 0, At: 10, Task: yolo, Iters: iters, GPUsReq: 1}}

	res, err := sys.Simulate(mudi.SimOptions{
		Devices:   1, // a single device: the catalog's first service is ResNet50
		Arrivals:  arrivals,
		Bursts:    []mudi.Burst{{Start: 100, End: 200, Factor: 3}},
		Timelines: true,
	})
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}

	// The service runs on the one device, so each of its per-window
	// series holds that device's value in the raw level (a raw bucket's
	// Sum is its sample). The measured-window series share sample times;
	// admitted QPS has a sample every window, so it is joined on time.
	svc := mudi.Services()[0]
	raw := func(kind string) []mudi.TimelineBucket {
		for _, tl := range res.Timelines {
			if tl.Kind == kind && tl.Scope == svc.Name {
				return tl.Levels[0].Buckets
			}
		}
		return nil
	}
	lat, batch, share := raw("service_p99_ms"), raw("service_batch"), raw("service_gpu_share")
	swapped, paused, viol := raw("service_swapped_mb"), raw("service_paused"), raw("service_violation")
	admitted := make(map[float64]float64)
	for _, b := range raw("service_admitted") {
		admitted[b.Start] = b.Sum
	}

	fmt.Fprintln(w, "t(s)   QPS    batch  GPU%  P99(ms)  budget   swapped(MB)  state")
	for i, b := range lat {
		if i%10 != 0 {
			continue
		}
		qps, bs := admitted[b.Start], int(batch[i].Sum)
		state := "multiplexing"
		if paused[i].Sum > 0 {
			state = "training paused"
		}
		flag := " "
		if viol[i].Sum > 0 {
			flag = "!"
		}
		fmt.Fprintf(w, "%5.0f  %5.0f  %5d  %3.0f%%  %7.1f  %7.1f  %11.0f  %s%s\n",
			b.Start, qps, bs, share[i].Sum*100, b.Sum, svc.SLOms*float64(bs)/qps, swapped[i].Sum, state, flag)
	}

	nViol := 0
	for _, b := range viol {
		if b.Sum > 0 {
			nViol++
		}
	}
	if len(lat) > 0 {
		fmt.Fprintf(w, "\ncase-study SLO violation: %.2f%% (paper: 0.71%%)\n",
			100*float64(nViol)/float64(len(lat)))
	}
	fmt.Fprintf(w, "memory swap events: %d, mean transfer %.2f ms (paper: 23.31 ms)\n",
		res.SwapEvents, res.AvgTransferMs)
	fmt.Fprintf(w, "training completed: %d/%d\n", res.Completed, res.Admitted)
	return nil
}
