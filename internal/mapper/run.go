package mapper

import "repro/internal/cl"

// RunOnDevice executes one per-read kernel over n work items on a single
// device and records the simulated timing, energy and cost in res: the
// device's busy time is both res.SimSeconds and its DeviceSeconds entry.
// The baseline mappers (threaded host programs in the paper) all use
// this single-queue path; only REPUTE and CORAL split work across
// devices.
//
// newState builds one host worker's private scratch (cl.Kernel.NewState);
// body receives it on every call and must keep all mutable working
// memory there, since the runtime may execute work items on several
// workers at once. Pass nil for a stateless kernel.
func RunOnDevice(res *Result, dev *cl.Device, kernelName string, n int, privateBytes int64, newState func() any, body func(*cl.WorkItem, any)) error {
	q := cl.NewQueue(dev)
	k := &cl.Kernel{Name: kernelName, PrivateBytesPerItem: privateBytes, NewState: newState, Body: body}
	if _, err := q.EnqueueNDRange(k, n); err != nil {
		return err
	}
	busy, total := q.Finish()
	res.SimSeconds = busy
	res.EnergyJ = q.EnergyJ()
	res.Cost = total
	if res.DeviceSeconds == nil {
		res.DeviceSeconds = map[string]float64{}
	}
	res.DeviceSeconds[dev.Name] = busy
	return nil
}
