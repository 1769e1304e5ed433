// Command mkmachine inspects machine presets and solves the design
// model's workload partitions for them — the planning side of the
// co-design flow, without running a simulation.
//
// Usage:
//
//	mkmachine list                 # available presets
//	mkmachine show xd1             # parameters, PE capacity, clocks
//	mkmachine show mybox.json      # same, for a machine JSON file
//	mkmachine solve xd1            # Eq. 4/5/6 partitions at paper sizes
//	mkmachine solve xt3 -b 2400    # partitions for another block size
package main

import (
	"flag"
	"fmt"
	"os"

	"codesign/internal/cli"
	"codesign/internal/core"
	"codesign/internal/fpga"
	"codesign/internal/machine"
)

// log is the tool's shared leveled stderr logger.
var log = cli.NewLogger("mkmachine", os.Stderr)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, rest := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = list()
	case "show":
		err = withPreset(rest, show)
	case "solve":
		err = withPreset(rest, solve)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Errorf("%v", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mkmachine {list | show <machine> | solve <machine> [-b N] [-fwb N]}")
	fmt.Fprintln(os.Stderr, "  <machine> is a preset name (try 'list') or a machine JSON file")
}

func withPreset(args []string, f func(machine.Config, []string) error) error {
	if len(args) < 1 {
		return fmt.Errorf("machine name or JSON file required (try 'list')")
	}
	cfg, err := machine.Resolve(args[0])
	if err != nil {
		return err
	}
	return f(cfg, args[1:])
}

func list() error {
	for name, p := range map[string]func() machine.Config{"xd1": machine.XD1, "xt3": machine.XT3DRC, "src6": machine.SRC6, "rasc": machine.RASC} {
		cfg := p()
		fmt.Printf("  %-5s %s: %d nodes, %s FPGAs, %.1f GB/s links\n",
			name, cfg.Name, cfg.Nodes, cfg.Device.Name, cfg.Fabric.LinkBandwidth/1e9)
	}
	return nil
}

func show(cfg machine.Config, _ []string) error {
	fmt.Printf("%s\n", cfg.Name)
	fmt.Printf("  nodes:              %d\n", cfg.Nodes)
	fmt.Printf("  processor:          %s\n", cfg.Processor().Name)
	fmt.Printf("  FPGA:               %s (%d slices, %d BRAM, %d mult)\n",
		cfg.Device.Name, cfg.Device.Slices, cfg.Device.BlockRAMs, cfg.Device.Multipliers)
	fmt.Printf("  FPGA-DRAM path:     %.2f GB/s\n", cfg.RawFPGADRAMBandwidth/1e9)
	fmt.Printf("  SRAM:               %d banks x %d MB\n", cfg.SRAMBanks, cfg.SRAMBankBytes>>20)
	fmt.Printf("  network:            %.1f GB/s x %d links/node\n",
		cfg.Fabric.LinkBandwidth/1e9, cfg.Fabric.LinksPerNode)

	kMM := maxPEs("lu", cfg.Device, 0)
	kFW := maxPEs("fw", cfg.Device, 0)
	fmt.Printf("  matmul design:      up to %d PEs", kMM)
	if p, err := fpga.Place(fpga.NewMatMul(kMM), cfg.Device); err == nil {
		fmt.Printf(" at %.1f MHz (Of=%d, Bd=%.2f GB/s)",
			p.FreqHz/1e6, fpga.NewMatMul(kMM).OpsPerCycle(),
			machine.EffectiveBd(cfg.RawFPGADRAMBandwidth, p.FreqHz)/1e9)
	}
	fmt.Println()
	fmt.Printf("  fw design:          up to %d PEs", kFW)
	if p, err := fpga.Place(fpga.NewFW(kFW), cfg.Device); err == nil {
		fmt.Printf(" at %.1f MHz (Of=%d, Bd=%.2f GB/s)",
			p.FreqHz/1e6, fpga.NewFW(kFW).OpsPerCycle(),
			machine.EffectiveBd(cfg.RawFPGADRAMBandwidth, p.FreqHz)/1e9)
	}
	fmt.Println()
	return nil
}

func solve(cfg machine.Config, rest []string) error {
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	b := fs.Int("b", 3000, "LU block size")
	fwb := fs.Int("fwb", 256, "FW block size")
	n := fs.Int("n", 0, "FW problem size (0 = 12 ops per phase)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	proc := cfg.Processor()

	kMM := maxPEs("lu", cfg.Device, *b)
	mm, err := fpga.Place(fpga.NewMatMul(kMM), cfg.Device)
	if err != nil {
		return err
	}
	lu := core.LUModel(cfg, proc, *b, kMM, mm.FreqHz, machine.EffectiveBd(cfg.RawFPGADRAMBandwidth, mm.FreqHz))
	if err := lu.Validate(); err != nil {
		return fmt.Errorf("LU model: %w", err)
	}
	bf, bp := lu.SolvePartition()
	l := lu.SolveL(bf)
	tlu, ttrsm := lu.PanelTimes()
	fmt.Printf("LU decomposition on %s (b=%d, k=%d, Ff=%.1f MHz):\n", cfg.Name, *b, kMM, lu.Ff/1e6)
	fmt.Printf("  Eq.4 partition:   bf=%d rows to FPGA, bp=%d to processor\n", bf, bp)
	fmt.Printf("  Eq.5 pipeline:    l=%d opMM per panel op (opLU %.2fs, opL/opU %.2fs)\n", l, tlu, ttrsm)
	fmt.Printf("  coordination:     %.1f handshakes/s\n", lu.CoordinationHz(bf))

	kFW := maxPEs("fw", cfg.Device, *fwb) // the largest array dividing the block
	fwP, err := fpga.Place(fpga.NewFW(kFW), cfg.Device)
	if err != nil {
		return err
	}
	fw := core.FWModel(cfg, proc, *fwb, kFW, fwP.FreqHz, machine.EffectiveBd(cfg.RawFPGADRAMBandwidth, fwP.FreqHz))
	if err := fw.Validate(); err != nil {
		return fmt.Errorf("FW model: %w", err)
	}
	nFW := *n
	if nFW == 0 {
		nFW = 12 * *fwb * cfg.Nodes // 12 ops per phase, as in the paper
	}
	l1, l2 := fw.SolveSplit(nFW)
	fmt.Printf("Floyd-Warshall on %s (b=%d, k=%d, Ff=%.1f MHz, n=%d):\n", cfg.Name, *fwb, kFW, fw.Ff/1e6, nFW)
	fmt.Printf("  Eq.6 split:       l1=%d ops to processor, l2=%d to FPGA per phase\n", l1, l2)
	fmt.Printf("  coordination:     %.2f handshakes/s\n", fw.CoordinationHz(max(l2, 1)))
	return nil
}

// maxPEs is the registered app's PE rule on dev at block size b.
func maxPEs(app string, dev fpga.Device, b int) int {
	a, err := core.LookupApp(app)
	if err != nil {
		panic(err)
	}
	return a.MaxPEs(dev, b)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
