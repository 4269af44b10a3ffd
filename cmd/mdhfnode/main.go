// Command mdhfnode serves one node of an MDHF cluster over HTTP — the
// server side of mdhf.Open(..., mdhf.WithNodeAddrs(...)). It
// generates the fact table deterministically from the schema scale and
// seed, keeps only the shard the cluster placement assigns to its node
// index, and serves scattered sub-queries, appends, compactions and
// stats on the given address (`curl <addr>/stats` prints the node's
// counters as JSON).
//
// Every node of a cluster must be started with identical -frag, -nodes,
// -scheme, -scale and -seed (they are the sharding contract); only
// -node and -addr differ per process.
//
// Usage:
//
//	mdhfnode -addr :7070 -frag "time::month, product::group" -nodes 4 -node 0
//	mdhfnode -addr :7071 -frag "time::month, product::group" -nodes 4 -node 1 ...
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	mdhf "repro"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	fragText := flag.String("frag", "time::month, product::group", "MDHF fragmentation (identical across the cluster)")
	nodes := flag.Int("nodes", 1, "cluster node count (identical across the cluster)")
	node := flag.Int("node", 0, "this node's index in [0,nodes)")
	gap := flag.Bool("gap", false, "use the gap round-robin node placement scheme")
	scale := flag.Int("scale", 60, "APB1Scaled reduction factor of the generated warehouse")
	seed := flag.Int64("seed", 1, "deterministic data generation seed (identical across the cluster)")
	workers := flag.Int("workers", 0, "node worker pool size (<1 = one per CPU)")
	admit := flag.Int("admit", 0, "admission limit (0 = unbounded)")
	onDisk := flag.String("ondisk", "", "serve from paged files under this directory (empty = in-memory engine)")
	disks := flag.Int("disks", 0, "decluster the on-disk backend over this many virtual disks")
	compress := flag.Bool("compress", false, "WAH-compressed bitmap files (an on-disk format: no effect without -ondisk)")
	ioDelay := flag.Duration("iodelay", 0, "simulated per-access disk latency (on-disk only)")
	flag.Parse()

	if *node < 0 || *node >= *nodes {
		fmt.Fprintf(os.Stderr, "mdhfnode: -node %d out of range [0,%d)\n", *node, *nodes)
		os.Exit(2)
	}
	if *onDisk == "" && (*disks != 0 || *ioDelay != 0) {
		fmt.Fprintln(os.Stderr, "mdhfnode: -disks and -iodelay need -ondisk (the in-memory engine has no disks)")
		os.Exit(2)
	}
	star := mdhf.APB1Scaled(*scale)
	spec, err := mdhf.ParseFragmentation(star, *fragText)
	if err != nil {
		log.Fatalf("mdhfnode: %v", err)
	}
	scheme := mdhf.RoundRobin
	if *gap {
		scheme = mdhf.GapRoundRobin
	}
	cl := mdhf.Placement{Disks: *nodes, Scheme: scheme}

	log.Printf("mdhfnode: generating APB1Scaled(%d) seed %d ...", *scale, *seed)
	table, err := mdhf.GenerateData(star, *seed)
	if err != nil {
		log.Fatalf("mdhfnode: %v", err)
	}
	shard := mdhf.PartitionFactTable(spec, cl, table)[*node]
	log.Printf("mdhfnode: node %d/%d owns %d of %d rows", *node, *nodes, shard.N(), table.N())

	cfg := mdhf.ClusterNodeConfig{
		Spec:       spec,
		Indexes:    mdhf.APB1Indexes(star),
		Index:      *node,
		Cluster:    cl,
		Workers:    *workers,
		AdmitLimit: *admit,
		Compress:   *compress,
		OnDisk:     *onDisk != "",
		Dir:        *onDisk,
		Disks:      *disks,
		Staggered:  true,
		IODelay:    *ioDelay,
		IODelaySet: *ioDelay > 0,
	}
	n, err := mdhf.NewClusterNode(cfg, shard)
	if err != nil {
		log.Fatalf("mdhfnode: %v", err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           mdhf.NewNodeHandler(n),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// SIGINT/SIGTERM stop the listener and drain in-flight requests; either
	// way the node is closed before exit, so its journal and epoch
	// directories are released cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	log.Printf("mdhfnode: node %d serving on %s", *node, *addr)
	select {
	case err = <-served: // the listener failed
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = srv.Shutdown(shutCtx)
		cancel()
		<-served // http.ErrServerClosed
	}
	if closeErr := n.Close(); closeErr != nil {
		log.Printf("mdhfnode: closing node: %v", closeErr)
	}
	if err != nil {
		log.Fatalf("mdhfnode: %v", err)
	}
}
