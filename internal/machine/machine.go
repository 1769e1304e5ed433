package machine

import (
	"fmt"

	"codesign/internal/cpu"
	"codesign/internal/fabric"
	"codesign/internal/fault"
	"codesign/internal/fpga"
	"codesign/internal/mem"
	"codesign/internal/sim"
)

// Config describes a system to build.
type Config struct {
	// Name identifies the preset.
	Name string
	// Nodes is the node count p.
	Nodes int
	// Processor builds the per-node processor model.
	Processor func() *cpu.Processor
	// Device is the per-node FPGA part.
	Device fpga.Device
	// RawFPGADRAMBandwidth is the physical FPGA<->DRAM path bandwidth
	// in bytes/s (2.8 GB/s through the XD1 RapidArray processors). The
	// effective Bd is the lesser of this and the design's consumption
	// rate of one word per cycle.
	RawFPGADRAMBandwidth float64
	// SRAMBanks is the per-node QDR-II bank count.
	SRAMBanks int
	// SRAMBankBytes is the capacity of one bank in bytes.
	SRAMBankBytes int64
	// SRAMBandwidth is the aggregate FPGA<->SRAM bandwidth in bytes/s
	// (12.8 GB/s on XD1) — the path iterative designs stream resident
	// data over.
	SRAMBandwidth float64
	// Fabric is the interconnect model (LinkBandwidth is Bn).
	Fabric fabric.Config
}

// WordBytes is the double-precision word width (the model's bw).
const WordBytes = 8

// XD1 returns one Cray XD1 chassis: 6 blades, each a 2.2 GHz Opteron +
// XC2VP50 with four QDR-II banks, 2.8 GB/s RapidArray FPGA-DRAM path,
// and two 2 GB/s links into the non-blocking crossbar.
func XD1() Config {
	return Config{
		Name:                 "Cray XD1 (one chassis)",
		Nodes:                6,
		Processor:            cpu.Opteron22,
		Device:               fpga.XC2VP50(),
		RawFPGADRAMBandwidth: 2.8e9,
		SRAMBanks:            4,
		SRAMBankBytes:        4 << 20, // 16 MB total; designs allocate 8 MB
		SRAMBandwidth:        12.8e9,
		Fabric: fabric.Config{
			Nodes:         6,
			LinkBandwidth: 2e9,
			LinksPerNode:  2,
			Latency:       1.8e-6,
		},
	}
}

// XT3DRC returns a 6-node Cray XT3 partition with DRC Virtex-4 modules:
// a faster FPGA-DRAM path (6.4 GB/s HyperTransport) and SeaStar links.
func XT3DRC() Config {
	return Config{
		Name:                 "Cray XT3 + DRC (6 nodes)",
		Nodes:                6,
		Processor:            cpu.Opteron22,
		Device:               fpga.XC4VLX200(),
		RawFPGADRAMBandwidth: 6.4e9,
		SRAMBanks:            4,
		SRAMBankBytes:        16 << 20, // up to 64 MB per DRC module
		SRAMBandwidth:        9.6e9,
		Fabric: fabric.Config{
			Nodes:         6,
			LinkBandwidth: 4e9,
			LinksPerNode:  1,
			Latency:       5e-6,
		},
	}
}

// SRC6 returns a 4-node SRC-6 MAPstation cluster model.
func SRC6() Config {
	return Config{
		Name:                 "SRC-6 cluster (4 nodes)",
		Nodes:                4,
		Processor:            cpu.Opteron22,
		Device:               fpga.XC2VP50(),
		RawFPGADRAMBandwidth: 1.4e9, // SNAP port
		SRAMBanks:            6,
		SRAMBankBytes:        4 << 20,
		SRAMBandwidth:        9.6e9,
		Fabric: fabric.Config{
			Nodes:         4,
			LinkBandwidth: 1.4e9,
			LinksPerNode:  1,
			Latency:       3e-6,
		},
	}
}

// RASC returns a 4-blade SGI RASC RC100 model (Virtex-4 blades on
// NUMAlink to shared global memory).
func RASC() Config {
	return Config{
		Name:                 "SGI RASC RC100 (4 blades)",
		Nodes:                4,
		Processor:            cpu.Opteron22,
		Device:               fpga.XC4VLX160(),
		RawFPGADRAMBandwidth: 3.2e9,
		SRAMBanks:            4,
		SRAMBankBytes:        8 << 20,
		SRAMBandwidth:        12.8e9,
		Fabric: fabric.Config{
			Nodes:         4,
			LinkBandwidth: 3.2e9,
			LinksPerNode:  1,
			Latency:       1e-6,
		},
	}
}

// MaxNodes caps a configuration's node count. Building a system costs
// time and memory linear in the nodes (on a 2-vCPU x86-64 host: 17 ms
// at 4,096 nodes, 4 s at a million), so a machine file must not be able
// to ask for an unbounded build. The cap leaves room for the 4,096-node
// scale-out studies on the roadmap.
const MaxNodes = 4096

// Validate checks the configuration is buildable, returning an error
// naming the offending field. It subsumes every panic the lower layers
// (mem SRAM geometry, fabric endpoints) would otherwise raise mid-build,
// so configurations from user input (machine JSON files, sweep grids)
// fail with an error instead of crashing deep in a run.
func (c Config) Validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("machine: need at least one node")
	}
	if c.Nodes > MaxNodes {
		return fmt.Errorf("machine: field %q: %d nodes exceeds the limit of %d", "nodes", c.Nodes, MaxNodes)
	}
	if c.Processor == nil {
		return fmt.Errorf("machine: no processor model")
	}
	if c.RawFPGADRAMBandwidth <= 0 {
		return fmt.Errorf("machine: non-positive FPGA-DRAM bandwidth %g", c.RawFPGADRAMBandwidth)
	}
	if c.SRAMBanks < 1 {
		return fmt.Errorf("machine: need at least one SRAM bank, got %d", c.SRAMBanks)
	}
	if c.SRAMBankBytes < 1 {
		return fmt.Errorf("machine: non-positive SRAM bank size %d", c.SRAMBankBytes)
	}
	if c.SRAMBandwidth <= 0 {
		return fmt.Errorf("machine: non-positive SRAM bandwidth %g", c.SRAMBandwidth)
	}
	if c.Fabric.Nodes != c.Nodes {
		return fmt.Errorf("machine: fabric has %d endpoints for %d nodes", c.Fabric.Nodes, c.Nodes)
	}
	return c.Fabric.Validate()
}

// Node is one compute blade.
type Node struct {
	// ID is the node's index in System.Nodes.
	ID int
	// Proc is the node's processor model.
	Proc *cpu.Processor
	// CPUBusy accounts processor busy time (one processor per node, as
	// in the paper's implementation).
	CPUBusy *sim.Resource
	// SRAM is the FPGA's on-board memory.
	SRAM *mem.SRAM
	// Device is the node's FPGA part.
	Device fpga.Device
	// Accel is the installed design; nil until InstallDesign.
	Accel *Accelerator
	sys   *System
	// dilate, when non-nil, maps a nominal processor charge to its
	// fault-degraded duration, keyed by the charge's span category so
	// DMA charges can degrade with Bd while compute degrades with the
	// CPU straggler factor.
	dilate func(cat sim.Category, start, dt float64) float64
}

// SetDilation installs a fault-injection hook on the node's processor
// charges. Nil removes it; the hot path is untouched when unset.
func (n *Node) SetDilation(f func(cat sim.Category, start, dt float64) float64) {
	n.dilate = f
}

// ComputeCPU charges the node processor with flops of the given routine
// class, holding the CPU busy for the modeled duration. The hold is
// emitted as a compute span on the node's CPU resource.
func (n *Node) ComputeCPU(p *sim.Proc, r cpu.Routine, flops float64) {
	n.ChargeCPU(p, sim.CatCompute, 0, n.Proc.Time(r, flops))
}

// ChargeCPU holds the node processor for dt seconds and emits a typed
// span — the instrumented analogue of CPUBusy.Use for pre-computed
// charges (unpack time, operand staging) where the category and moved
// bytes are known to the caller.
func (n *Node) ChargeCPU(p *sim.Proc, cat sim.Category, bytes int64, dt float64) {
	if n.dilate != nil {
		dt = n.dilate(cat, n.sys.Eng.Now(), dt)
	}
	n.CPUBusy.UseCat(p, cat, bytes, dt)
}

// ChargeCPUSeq charges a sequence of consecutive processor intervals —
// e.g. unpack, DMA staging, then a GEMM — exactly like calling
// ChargeCPU once per charge, but through the engine's fused path so
// the process parks once for the whole sequence (see sim.Resource.
// UseSeq). With a fault-dilation hook installed it sets each charge's
// Dilate to it, so every charge degrades from its own start time, as
// ChargeCPU's would.
func (n *Node) ChargeCPUSeq(p *sim.Proc, charges []sim.Charge) {
	if n.dilate != nil {
		for i := range charges {
			charges[i].Dilate = n.dilate
		}
	}
	n.CPUBusy.UseSeq(p, charges)
}

// CPUTask runs charges on the node processor as an engine task (see
// sim.Engine.Task): a process named name, in phase, whose body is
// ChargeCPUSeq(charges) and then the non-blocking hook then. It sets
// each charge's Res and Dilate. Use it for a processor body with no
// other blocking step, such as an opMS update.
func (n *Node) CPUTask(name, phase string, charges []sim.Charge, then func()) {
	for i := range charges {
		charges[i].Res = n.CPUBusy
		charges[i].Dilate = n.dilate
	}
	n.sys.Eng.Task(name, phase, sim.DeviceCPU, n.CPUBusy.Name(), charges, then)
}

// Accelerator is a placed design installed on a node's FPGA, with its
// effective DRAM streaming channel and coordination counters.
type Accelerator struct {
	// Placed is the design as placed on the node's device.
	Placed *fpga.Placed
	// DRAM is the streaming channel at the effective Bd =
	// min(raw path, one word per design cycle).
	DRAM *mem.DRAM
	// Array serializes use of the PE array.
	Array *sim.Resource
	// fillName is the precomputed Array.Name()+".fill" stage name:
	// the fill runs once per FPGA job, so building the string there
	// showed up in sweep allocation profiles.
	fillName string
	// fillDilate is the fill charge's dilation: the DRAM path's hook,
	// the identity while none is installed. Job builds it on first use,
	// so accelerators that run no Job allocate nothing for it.
	fillDilate    func(cat sim.Category, start, dt float64) float64
	node          *Node
	coordinations int64
	jobs          int64
	// dilate, when non-nil, maps nominal array compute time to its
	// fault-degraded duration (an FPGA reconfiguration stall), in the
	// form a charge carries.
	dilate func(cat sim.Category, start, dt float64) float64
}

// SetDilation installs a fault-injection hook on the accelerator's
// array compute time. Nil removes it.
func (a *Accelerator) SetDilation(f func(start, dt float64) float64) {
	a.dilate = nil
	if f != nil {
		a.dilate = func(_ sim.Category, start, dt float64) float64 { return f(start, dt) }
	}
}

// EffectiveBd returns the design-limited DRAM bandwidth.
func EffectiveBd(raw, freqHz float64) float64 {
	designRate := WordBytes * freqHz
	if designRate < raw {
		return designRate
	}
	return raw
}

// InstallDesign places d on every node's FPGA (charging configuration
// time is the caller's choice via ConfigTime). It fails if the design
// does not fit the device.
func (s *System) InstallDesign(d fpga.Design) error {
	for _, n := range s.Nodes {
		placed, err := fpga.Place(d, n.Device)
		if err != nil {
			return fmt.Errorf("node %d: %w", n.ID, err)
		}
		array := sim.NewResource(s.Eng, fmt.Sprintf("fpga%d", n.ID), 1)
		array.SetDevice(sim.DeviceFPGA)
		n.Accel = &Accelerator{
			Placed:   placed,
			DRAM:     mem.NewDRAM(s.Eng, EffectiveBd(s.Cfg.RawFPGADRAMBandwidth, placed.FreqHz)),
			Array:    array,
			fillName: array.Name() + ".fill",
			node:     n,
		}
	}
	return nil
}

// ConfigTime returns the bitstream configuration time for the node's
// device.
func (a *Accelerator) ConfigTime() float64 { return a.node.Device.ConfigSeconds }

// NoFill is Job's fill argument for a job without an operand-fill
// stage.
const NoFill = -1.0

// Job starts a straight-line FPGA job (the processor writing the start
// register, Section 4.4) and returns a signal that fires when the job
// is done (the status register), counting coordinations and jobs as
// Launch does. The job is an engine task (see sim.Engine.Task) named
// name, in phase, with up to two charges:
//
//   - unless fill is NoFill, fill seconds of operand staging —
//     pipeline-fill lag while the processor streams the first operands
//     in — as a DMA span against the array's fill stage, so overlap
//     accounting attributes it to memory traffic, not FPGA compute. The
//     lag rides the DRAM path, so it degrades with the same Bd faults
//     as explicit streams;
//   - cycles of array compute, exactly as Compute charges them.
//
// Use Launch when the job body waits on the processor through a
// mailbox.
func (a *Accelerator) Job(name, phase string, fill, cycles float64) *sim.Signal {
	a.coordinations++ // start-register write
	a.jobs++
	e := a.node.sys.Eng
	done := sim.NewSignal(e, name+".done")
	var buf [2]sim.Charge
	cs := buf[:0]
	if fill != NoFill {
		if a.fillDilate == nil {
			a.fillDilate = func(_ sim.Category, start, dt float64) float64 { return a.DRAM.Dilated(start, dt) }
		}
		cs = append(cs, sim.Charge{Cat: sim.CatDMA, Dt: fill, Dilate: a.fillDilate})
	}
	cs = append(cs, sim.Charge{Cat: sim.CatCompute, Dt: a.Placed.CyclesToSeconds(cycles),
		Res: a.Array, Dilate: a.dilate})
	e.Task(name, phase, sim.DeviceDRAM, a.fillName, cs, done.Fire)
	return done
}

// Launch starts an FPGA job (the processor writing the start register,
// Section 4.4) and returns a signal that fires when the job is done
// (the status register). run executes as its own process and should
// charge Array/DRAM time itself. A job that only fills and computes is
// cheaper as a Job.
func (a *Accelerator) Launch(name string, run func(fp *sim.Proc)) *sim.Signal {
	a.coordinations++ // start-register write
	a.jobs++
	done := sim.NewSignal(a.node.sys.Eng, name+".done")
	a.node.sys.Eng.Go(name, func(fp *sim.Proc) {
		run(fp)
		done.Fire()
	})
	return done
}

// AwaitDone blocks the processor on the job's status register.
func (a *Accelerator) AwaitDone(p *sim.Proc, done *sim.Signal) {
	a.coordinations++ // status-register poll observing completion
	done.Wait(p)
}

// Run launches a job and immediately blocks until it completes.
func (a *Accelerator) Run(p *sim.Proc, name string, run func(fp *sim.Proc)) {
	a.AwaitDone(p, a.Launch(name, run))
}

// Compute charges the PE array with a cycle count at the placed clock.
// The hold is emitted as an FPGA compute span on the array resource.
// With a fault hook installed the nominal duration is dilated first, so
// a reconfiguration stall stretches the same span a healthy run emits.
func (a *Accelerator) Compute(fp *sim.Proc, cycles float64) {
	dt := a.Placed.CyclesToSeconds(cycles)
	if a.dilate != nil {
		dt = a.dilate(sim.CatCompute, a.node.sys.Eng.Now(), dt)
	}
	a.Array.UseCat(fp, sim.CatCompute, 0, dt)
}

// Stream charges a DRAM<->FPGA transfer of the given bytes.
func (a *Accelerator) Stream(fp *sim.Proc, bytes int) { a.DRAM.Stream(fp, bytes) }

// Coordinations returns processor<->FPGA register handshakes so far.
func (a *Accelerator) Coordinations() int64 { return a.coordinations }

// Jobs returns the number of launched FPGA jobs.
func (a *Accelerator) Jobs() int64 { return a.jobs }

// System is a built machine inside a simulation engine.
type System struct {
	// Cfg is the configuration the system was built from.
	Cfg Config
	// Eng is the simulation engine every node, link and resource of
	// the system runs in.
	Eng *sim.Engine
	// Fab is the interconnect between the nodes.
	Fab *fabric.Fabric
	// Nodes holds the compute blades, indexed by node ID.
	Nodes []*Node
}

// New builds the system described by cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New()
	fab, err := fabric.New(eng, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Eng: eng, Fab: fab}
	for i := 0; i < cfg.Nodes; i++ {
		cpuBusy := sim.NewResource(eng, fmt.Sprintf("cpu%d", i), 1)
		cpuBusy.SetDevice(sim.DeviceCPU)
		s.Nodes = append(s.Nodes, &Node{
			ID:      i,
			Proc:    cfg.Processor(),
			CPUBusy: cpuBusy,
			SRAM:    mem.NewSRAM(cfg.SRAMBanks, cfg.SRAMBankBytes),
			Device:  cfg.Device,
			sys:     s,
		})
	}
	return s, nil
}

// InstallFaults wires a fault injector into every charging path of the
// built system: processor charges (CPU straggler / Bd-paced DMA /
// network unpack), FPGA-DRAM streams and operand fill (Bd throttle),
// outbound wire time (Bn throttle) and array compute (reconfiguration
// stalls). Call it after
// InstallDesign so the per-node accelerators exist; a nil injector is a
// no-op. The hooks only dilate charge durations — no engine events are
// scheduled — so an injector with no configured faults leaves the
// simulation byte-identical.
func (s *System) InstallFaults(inj *fault.Injector) error {
	if inj == nil {
		return nil
	}
	if inj.Nodes() != s.Cfg.Nodes {
		return fmt.Errorf("machine: fault spec targets %d nodes, system has %d", inj.Nodes(), s.Cfg.Nodes)
	}
	for i, n := range s.Nodes {
		node := i
		n.SetDilation(func(cat sim.Category, start, dt float64) float64 {
			// DMA charges are paced by the FPGA-DRAM path; everything
			// else the processor does (compute, unpack) is CPU-bound.
			if cat == sim.CatDMA {
				return inj.Dilate(fault.ClassDRAM, node, start, dt)
			}
			return inj.Dilate(fault.ClassCPU, node, start, dt)
		})
		s.Fab.SetDilation(node, func(start, dt float64) float64 {
			return inj.Dilate(fault.ClassNet, node, start, dt)
		})
		if n.Accel != nil {
			n.Accel.DRAM.SetDilation(func(start, dt float64) float64 {
				return inj.Dilate(fault.ClassDRAM, node, start, dt)
			})
			n.Accel.SetDilation(func(start, dt float64) float64 {
				return inj.Dilate(fault.ClassFPGA, node, start, dt)
			})
		}
	}
	return nil
}

// Run drives the simulation to completion and returns the final virtual
// time.
func (s *System) Run() (float64, error) {
	err := s.Eng.Run(0)
	return s.Eng.Now(), err
}
