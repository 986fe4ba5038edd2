package main

import (
	"fmt"

	"lpvs/internal/device"
	"lpvs/internal/stats"
)

// Device-population parameters of the closed loops. A slot is one
// 5-minute scheduling period of the paper's edge service.
const (
	drainShare  = 0.8  // devices whose battery drains in a slot; the rest charge
	churnShare  = 0.05 // devices replaced by new IDs after each slot
	observeEach = 10   // one device in observeEach fetches a chunk and observes
	lowFloor    = 0.03 // a draining battery stops at this fraction
)

// fleet is the seeded device population: display mix, battery and
// channel of every device, evolved slot by slot. Every draw comes from
// one RNG in a fixed order, so a seed fixes the whole run.
type fleet struct {
	rng     *stats.RNG
	cfg     device.GenConfig
	weights []float64 // channel popularity
	serial  int

	devs   []*device.Device
	index  map[string]int // device ID -> index
	chans  []string       // channel each device watches
	trueG  []float64      // realised power-reduction ratio the device observes
	drainW []float64      // device power draw while watching
}

func newFleet(seed int64, n, channels int) (*fleet, error) {
	f := &fleet{rng: stats.NewRNG(seed), cfg: device.DefaultGenConfig(), weights: channelWeights(channels)}
	devs, err := device.NewFleet(f.rng, n, f.cfg)
	if err != nil {
		return nil, err
	}
	f.devs = make([]*device.Device, n)
	f.index = make(map[string]int, n)
	f.chans = make([]string, n)
	f.trueG = make([]float64, n)
	f.drainW = make([]float64, n)
	for i, d := range devs {
		f.place(i, d)
	}
	return f, nil
}

// channelWeights skews popularity towards the first of n channels, as
// live platforms do (weight 1/(k+1)).
func channelWeights(n int) []float64 {
	w := make([]float64, n)
	for k := range w {
		w[k] = 1 / float64(k+1)
	}
	return w
}

// place installs a freshly generated device at index i under a new ID.
func (f *fleet) place(i int, d *device.Device) {
	if old := f.devs[i]; old != nil {
		delete(f.index, old.ID)
	}
	d.ID = fmt.Sprintf("d%07d", f.serial)
	f.serial++
	f.devs[i] = d
	f.index[d.ID] = i
	f.chans[i] = channelIDs[f.rng.Categorical(f.weights)]
	f.trueG[i] = f.rng.Uniform(0.1, 0.4)
	f.drainW[i] = d.BasePowerW + f.rng.Uniform(0.3, 1.0)
}

// advance plays one slot: drainShare of batteries drain by a slot of
// playback, the rest stay level, and churnShare of the devices leave
// and are replaced by new ones. It returns the replaced indices.
func (f *fleet) advance() ([]int, error) {
	for i, d := range f.devs {
		if !f.rng.Bool(drainShare) {
			continue
		}
		floor := lowFloor * d.Battery.CapacityJ
		if lvl := d.Battery.LevelJ - f.drainW[i]*lpvsdSlotSec; lvl > floor {
			d.Battery.LevelJ = lvl
		} else if d.Battery.LevelJ > floor {
			d.Battery.LevelJ = floor
		}
	}
	n := int(float64(len(f.devs)) * churnShare)
	gone := make([]int, 0, n)
	for k := 0; k < n; k++ {
		gone = append(gone, f.rng.Intn(len(f.devs)))
	}
	fresh, err := device.NewFleet(f.rng, n, f.cfg)
	if err != nil {
		return nil, err
	}
	for k, i := range gone {
		f.place(i, fresh[k])
	}
	return gone, nil
}

// observers picks this slot's devices that fetch a chunk and report an
// observed power reduction, with the chunk index each one plays.
func (f *fleet) observers(chunksPerSlot int) (idx, chunk []int) {
	n := len(f.devs) / observeEach
	for k := 0; k < n; k++ {
		idx = append(idx, f.rng.Intn(len(f.devs)))
		chunk = append(chunk, f.rng.Intn(chunksPerSlot))
	}
	return idx, chunk
}

// reduction is the power reduction device i observes this slot: its
// true ratio with ±20% seeded noise, always inside (0, 1).
func (f *fleet) reduction(i int) float64 {
	return stats.Clamp(f.trueG[i]*f.rng.Uniform(0.8, 1.2), 0.01, 0.99)
}
