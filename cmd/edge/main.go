// Command edge runs the network-fronted data plane: HTTP ingest with
// batched zero-alloc staging into the plane's MPSC ingress, and SSE /
// WebSocket fan-out with per-connection write coalescing. SIGTERM
// drains in dependency order — staged batches flush, the plane drains
// bounded by -drain-timeout, subscribers get a final flush, then the
// listener closes — so nothing the edge 202'd is silently dropped.
//
//	edge -listen :8080 -tenants 8 -rate 50000 -burst 1000
//	curl -XPOST localhost:8080/v1/ingest?tenant=0 -d 'hello'
//	curl -N localhost:8080/v1/subscribe?tenant=0
//
// With -node-id the edge joins a federation: tenants hash onto the
// cluster ring and ingest for a tenant owned by a peer is forwarded
// over the node bridge instead of being served locally.
//
//	edge -listen :8080 -node-id a -cluster-listen :9100 \
//	     -peers b=host2:9100,c=host3:9100
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyperplane/dataplane"
	"hyperplane/internal/cluster"
	"hyperplane/internal/cluster/frame"
	"hyperplane/internal/edge"
	"hyperplane/internal/telemetry"
)

func main() {
	var (
		listen        = flag.String("listen", ":8080", "ingest/subscribe listen address")
		tenants       = flag.Int("tenants", 8, "tenant queue pairs")
		workers       = flag.Int("workers", 0, "plane workers (0 = tenants, capped by the plane)")
		ring          = flag.Int("ring", 4096, "ring capacity (power of two)")
		mode          = flag.String("mode", "notify", "notification mode: notify, spin or hybrid")
		rate          = flag.Float64("rate", 0, "per-tenant ingest requests/sec (0 = unlimited)")
		burst         = flag.Int("burst", 0, "rate-limit burst depth")
		flushBatch    = flag.Int("flush-batch", 64, "requests staged per IngressBatch flush")
		flushInterval = flag.Duration("flush-interval", 200*time.Microsecond, "partial-batch flush deadline")
		idemWindow    = flag.Int("idem-window", 4096, "per-tenant idempotency-key history")
		maxPayload    = flag.Int("max-payload", 0, "largest ingest body in bytes (0 = slab size)")
		subBuffer     = flag.Int("sub-buffer", 256<<10, "per-subscriber pending ring in bytes")
		subPolicy     = flag.String("sub-policy", "drop-oldest", "slow-subscriber policy: drop-oldest or drop-newest")
		writeTimeout  = flag.Duration("write-timeout", 5*time.Second, "per-subscriber coalesced write deadline")
		durableDir    = flag.String("durable", "", "WAL directory (empty = in-memory plane)")
		authSpec      = flag.String("auth", "", "comma-separated token=tenant pairs (empty = open mode, ?tenant=N)")
		metricsAddr   = flag.String("metrics", "", "telemetry listen address for /metrics (empty = off)")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "SIGTERM drain bound")
		nodeID        = flag.String("node-id", "", "federation node id (empty = standalone edge)")
		clusterListen = flag.String("cluster-listen", "", "node-to-node bridge listen address (default 127.0.0.1:0)")
		peersSpec     = flag.String("peers", "", "comma-separated id=host:port federation peers")
	)
	flag.Parse()

	m, err := dataplane.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	pol := dataplane.DropOldest
	switch *subPolicy {
	case "drop-oldest":
	case "drop-newest":
		pol = dataplane.DropNewest
	default:
		log.Fatalf("unknown -sub-policy %q (want drop-oldest or drop-newest)", *subPolicy)
	}
	var auth map[string]int
	if *authSpec != "" {
		auth = make(map[string]int)
		for _, pair := range strings.Split(*authSpec, ",") {
			tok, t, ok := strings.Cut(pair, "=")
			if !ok {
				log.Fatalf("bad -auth entry %q (want token=tenant)", pair)
			}
			id, err := strconv.Atoi(t)
			if err != nil || id < 0 || id >= *tenants {
				log.Fatalf("bad -auth tenant in %q", pair)
			}
			auth[tok] = id
		}
	}

	cfg := edge.Config{
		Plane: dataplane.Config{
			Tenants:      *tenants,
			Workers:      *workers,
			RingCapacity: *ring,
			Mode:         m,
			Delivery:     pol,
		},
		Auth:          auth,
		Rate:          *rate,
		Burst:         *burst,
		FlushBatch:    *flushBatch,
		FlushInterval: *flushInterval,
		IdemWindow:    *idemWindow,
		MaxPayload:    *maxPayload,
		SubBuffer:     *subBuffer,
		SubPolicy:     pol,
		WriteTimeout:  *writeTimeout,
	}
	if *workers == 0 {
		cfg.Plane.Workers = *tenants
	}
	// A federated edge has two producers per tenant ring: the stager
	// flush (anonymous local traffic) and the cluster node (bridge
	// arrivals and keyed local requests, under its dedup shard).
	cfg.Plane.SharedIngress = *nodeID != ""
	if *durableDir != "" {
		cfg.Plane.Durable = dataplane.DurableConfig{Dir: *durableDir}
	}
	if *metricsAddr != "" {
		tel, err := telemetry.New(telemetry.Config{Tenants: *tenants, Workers: cfg.Plane.Workers})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Telemetry = tel
		cfg.Plane.Telemetry = tel
		go func() {
			log.Printf("telemetry on %s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, tel.Handler()); err != nil {
				log.Printf("telemetry server: %v", err)
			}
		}()
	}

	var peers []cluster.PeerSpec
	if *peersSpec != "" {
		if *nodeID == "" {
			log.Fatal("-peers requires -node-id")
		}
		for _, pair := range strings.Split(*peersSpec, ",") {
			id, addr, ok := strings.Cut(pair, "=")
			if !ok || id == "" || addr == "" {
				log.Fatalf("bad -peers entry %q (want id=host:port)", pair)
			}
			peers = append(peers, cluster.PeerSpec{ID: id, Addr: addr})
		}
	}

	s, err := edge.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s.Start()

	var node *cluster.Node
	if *nodeID != "" {
		// The bridge frame cap must fit one max-size ingest body plus
		// its batch headers; below the protocol default, just use the
		// default. Every node derives this from the same -max-payload
		// flag, so the cluster agrees on one cap.
		clusterMax := cfg.MaxPayload + frame.BatchRunOverhead + frame.BatchItemOverhead
		if clusterMax < frame.DefaultMaxPayload {
			clusterMax = frame.DefaultMaxPayload
		}
		node, err = cluster.NewNode(cluster.Config{
			ID:         *nodeID,
			ListenAddr: *clusterListen,
			Peers:      peers,
			Plane:      s.Plane(),
			MaxPayload: clusterMax,
			Telemetry:  cfg.Telemetry,
			Logf:       log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := node.Start(); err != nil {
			log.Fatal(err)
		}
		s.SetRouter(node)
		log.Printf("federation node %s on %s (%d peers)", *nodeID, node.Addr(), len(peers))
	}
	hs := &http.Server{Addr: *listen, Handler: s.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("edge on %s (tenants=%d workers=%d mode=%s flush-batch=%d)",
		*listen, *tenants, cfg.Plane.Workers, *mode, *flushBatch)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatalf("listener: %v", err)
	case <-ctx.Done():
	}
	log.Printf("draining (bound %s)", *drainTimeout)
	if node != nil {
		// Leave the federation first: stop accepting bridge traffic and
		// flush the outboxes so peers re-home this node's tenants while
		// the local plane drains what it already owns.
		s.SetRouter(nil)
		node.Stop()
	}
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(sctx, hs); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	st := s.Stats()
	fmt.Printf("drained: accepted=%d flushed=%d fanout=%d coalesced_writes=%d dropped_subs=%d\n",
		st.Accepted, st.FlushedItems, st.FanoutMsgs, st.CoalescedWrites, st.SubDropped)
}
