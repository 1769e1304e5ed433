package core

import (
	"fmt"

	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/sim"
)

// OpMMResult reports the stripe-granular simulation of one b×b block
// matrix multiplication on the p-1 compute nodes while node 0 streams
// the operand stripes — the experiment of Figure 5.
type OpMMResult struct {
	// BF and BP are the stripe row split, B the block size, K the PE
	// count.
	BF, BP, B, K int
	// Seconds is the makespan of the whole block multiplication.
	Seconds float64
	// StripeTf/Tp/Tmem/Tcomm echo the model's per-stripe times.
	StripeTf, StripeTp, StripeTmem, StripeTcomm float64
}

// RunOpMM simulates one b×b block matrix multiplication at stripe
// granularity: node 0 multicasts each of the b/k column/row stripe
// pairs in turn; every compute node unpacks the stripe, streams the
// FPGA's operands to it, runs its software share, and the FPGA array
// consumes stripes from a double-buffered queue. Pipelining across
// stripes arises naturally from the resource model.
func RunOpMM(mc machine.Config, b, pes, bf int) (*OpMMResult, error) {
	return runOpMM(mc, b, pes, bf, nil)
}

// runOpMM is RunOpMM with an observer on the run's telemetry stream.
func runOpMM(mc machine.Config, b, pes, bf int, obs sim.Observer) (*OpMMResult, error) {
	// One opMM is one LU block: LU's PE rule, geometry and design.
	m, err := luApp.start(Spec{Machine: mc, N: b, B: b, PEs: pes, Observer: obs}, func() error {
		if bf < 0 || bf > b {
			return fmt.Errorf("core: bf=%d out of [0,%d]", bf, b)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sys, q := m.sys, m.q
	p, k := q.Machine.Nodes, q.K
	lp := LUModel(q.Machine, q.Proc, b, k, q.Ff, q.Bd)
	tf, tp, tmem, tcomm := lp.StripeTimes(bf)
	stripes := b / k
	d := fpga.MatMulDesign{K: k}
	fpgaStripeCycles := d.StripeCycles(1, bf, b, p-1)

	// Per-node stripe queues: sender -> CPU, CPU -> FPGA.
	inbox := make([]*sim.Mailbox, p)
	fpgaQ := make([]*sim.Mailbox, p)
	for i := 1; i < p; i++ {
		inbox[i] = sim.NewMailbox(sys.Eng, fmt.Sprintf("opmm.in%d", i))
		fpgaQ[i] = sim.NewMailbox(sys.Eng, fmt.Sprintf("opmm.fq%d", i))
	}
	dsts := make([]int, 0, p-1)
	for i := 1; i < p; i++ {
		dsts = append(dsts, i)
	}

	// Node 0: stream the stripe pairs.
	stripeBytes := 2 * b * k * machine.WordBytes
	sys.Eng.Go("opmm.sender", func(pr *sim.Proc) {
		pr.SetPhase("broadcast")
		for s := 0; s < stripes; s++ {
			sys.Fab.Multicast(pr, 0, dsts, stripeBytes)
			for _, d := range dsts {
				inbox[d].Put(s)
			}
		}
	})

	// Compute nodes: CPU pipeline + FPGA array worker.
	for i := 1; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		var fpgaDone *sim.Signal
		if bf > 0 {
			fpgaDone = sim.NewSignal(sys.Eng, fmt.Sprintf("opmm.fdone%d", me))
			a := node.Accel
			sys.Eng.Go(fmt.Sprintf("opmm.fpga%d", me), func(fp *sim.Proc) {
				fp.SetPhase("stripe")
				for s := 0; s < stripes; s++ {
					fpgaQ[me].Get(fp)
					a.Compute(fp, fpgaStripeCycles)
				}
				fpgaDone.Fire()
			})
		}
		stripeDMABytes := int64(d.StripeWords(1, bf, b, p-1)) * machine.WordBytes
		sys.Eng.Go(fmt.Sprintf("opmm.cpu%d", me), func(pr *sim.Proc) {
			pr.SetPhase("stripe")
			for s := 0; s < stripes; s++ {
				inbox[me].Get(pr)
				// Unpack (the multicast wire span carried the bytes),
				// then the FPGA operand stream or the software share.
				// Consecutive charges fuse into one engine park; the
				// FPGA queue Put is a side effect at the DMA charge's
				// end, so the software share joins the fused sequence
				// only when there is no FPGA share ahead of it.
				if bf > 0 {
					node.ChargeCPUSeq(pr, []sim.Charge{
						{Cat: sim.CatNetwork, Dt: tcomm},
						{Cat: sim.CatDMA, Bytes: stripeDMABytes, Dt: tmem},
					})
					fpgaQ[me].Put(s)
					if bf < b {
						// Software share of the stripe.
						node.ChargeCPU(pr, sim.CatCompute, 0, tp)
					}
				} else {
					node.ChargeCPUSeq(pr, []sim.Charge{
						{Cat: sim.CatNetwork, Dt: tcomm},
						{Cat: sim.CatCompute, Dt: tp},
					})
				}
			}
			if fpgaDone != nil {
				node.Accel.AwaitDone(pr, fpgaDone)
			}
		})
	}

	var res Result
	if err := m.finish("opMM", 0, &res); err != nil {
		return nil, err
	}
	return &OpMMResult{
		BF: bf, BP: b - bf, B: b, K: k,
		Seconds:  res.Seconds,
		StripeTf: tf, StripeTp: tp, StripeTmem: tmem, StripeTcomm: tcomm,
	}, nil
}
