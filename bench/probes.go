package main

// Isolated calls into single layers, made by the child after a traced run's
// measurement has stopped. Each fills per-layer metrics the workload's own
// spans cannot separate, using only the public functions of that layer.

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// byVessel groups records by MMSI, vessels in ascending MMSI order.
func byVessel(recs []record) [][]record {
	m := make(map[uint32][]record)
	for _, r := range recs {
		m[r.MMSI] = append(m[r.MMSI], r)
	}
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([][]record, len(ids))
	for i, id := range ids {
		out[i] = m[id]
	}
	return out
}

func since(t0 time.Time) float64 { return float64(time.Since(t0)) }

// probeBatchStages times CleanVessel, ExtractTrips and EmitTrip alone over
// the archive's vessels.
func probeBatchStages(archive string, idx *portIndex, m map[string]float64) error {
	arc, err := readArchive(archive)
	if err != nil {
		return err
	}
	var cleanNs, tripsNs, projectNs, nIn, nClean, nObs float64
	var obs []keyedObs
	for _, recs := range byVessel(arc.recs) {
		t0 := time.Now()
		cleaned := cleanVessel(recs)
		cleanNs += since(t0)
		t0 = time.Now()
		trips := extractTrips(cleaned, idx)
		tripsNs += since(t0)
		t0 = time.Now()
		obs = obs[:0]
		for _, t := range trips {
			obs = emitTrip(t, arc.statics[recs[0].MMSI], obs)
		}
		projectNs += since(t0)
		nIn, nClean, nObs = nIn+float64(len(recs)), nClean+float64(len(cleaned)), nObs+float64(len(obs))
	}
	m["pipeline.clean_ns_per_record"] = ratio(cleanNs, nIn)
	m["pipeline.trips_ns_per_record"] = ratio(tripsNs, nClean)
	m["pipeline.project_ns_per_obs"] = ratio(projectNs, nObs)
	return nil
}

// probeLookups times point lookups and OD retrievals on a view.
func probeLookups(v view, rng *rand.Rand) (getNs, odcellsUs float64) {
	cells := v.Cells(gsCell)
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		v.Cell(cells[rng.Intn(len(cells))])
	}
	getNs = since(t0) / n
	var ods []groupKey
	v.Each(func(k groupKey, _ *summary) bool {
		if k.Set == gsCellOD && len(ods) < 200 {
			ods = append(ods, k)
		}
		return len(ods) < 200
	})
	t0 = time.Now()
	for _, k := range ods {
		v.ODCells(k.Origin, k.Dest, k.VType)
	}
	return getNs, ratio(since(t0)/1e3, float64(len(ods)))
}

// probeServe measures the api handlers without a socket, the lookups under
// them, and on a segment the cost of a cache hit and of a miss.
func probeServe(v view, rd *segReader, refPath string, m map[string]float64) error {
	rng := rand.New(rand.NewSource(1))
	h := apiHandler(v)
	reqs, _, err := makeRequests(v, 1, 2000)
	if err != nil {
		return err
	}
	byRoute := map[string][]string{"info": make([]string, 20)}
	for i := range byRoute["info"] {
		byRoute["info"][i] = "/v1/info"
	}
	for _, r := range reqs {
		if len(byRoute[r.route]) < 300 {
			byRoute[r.route] = append(byRoute[r.route], r.path)
		}
	}
	for route, paths := range byRoute {
		var us, bytes []float64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, p := range paths {
			rec := httptest.NewRecorder()
			rq := httptest.NewRequest(http.MethodGet, p, nil)
			t0 := time.Now()
			h.ServeHTTP(rec, rq)
			us = append(us, since(t0)/1e3)
			bytes = append(bytes, float64(rec.Body.Len()))
		}
		runtime.ReadMemStats(&ms1)
		m["api.handler_us_p50."+route] = median(us)
		m["api.resp_bytes_p50."+route] = median(bytes)
		// The recorder and request are the harness's; they cost the same
		// few allocations on every route.
		m["api.allocs_per_req."+route] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(paths))
	}
	if rd == nil {
		getNs, odUs := probeLookups(v, rng)
		m["inventory.get_ns"], m["inventory.odcells_us"] = getNs, odUs
		m["api.encode_residual_us.cell"] = m["api.handler_us_p50.cell"] - getNs/1e3
		return nil
	}

	// A fresh reader: every first touch of a shard is a miss, every later
	// one a hit while the shard stays among the 64 pinned.
	fresh, err := openSegment(refPath)
	if err != nil {
		return err
	}
	defer fresh.Close()
	cells := fresh.Cells(gsCell)
	var hitNs, missUs []float64
	for i := 0; i < 4000; i++ {
		c := cells[rng.Intn(len(cells))]
		_, before, _, _ := fresh.cacheCounts()
		t0 := time.Now()
		fresh.Cell(c)
		d := since(t0)
		if _, after, _, _ := fresh.cacheCounts(); after > before {
			missUs = append(missUs, d/1e3)
		} else {
			hitNs = append(hitNs, d)
		}
	}
	_, _, pinned, pinnedBytes := fresh.cacheCounts()
	m["segment.get_ns_hit"] = median(hitNs)
	m["segment.get_us_miss"] = median(missUs)
	m["segment.inflated_bytes_per_miss"] = ratio(float64(pinnedBytes), float64(pinned))
	hit := m["segment.cache_hit_ratio"]
	lookupUs := hit*m["segment.get_ns_hit"]/1e3 + (1-hit)*m["segment.get_us_miss"]
	m["api.encode_residual_us.cell"] = m["api.handler_us_p50.cell"] - lookupUs
	return fresh.Err()
}

// probeLive makes the isolated calls of the stream path over the same
// stream the parent replayed, which it left as an archive under dir.
func probeLive(ls *liveStack, dir string, m map[string]float64) error {
	arc, err := readArchive(filepath.Join(dir, "stream.nmea"))
	if err != nil {
		return err
	}
	idx := newPortIndex()
	n := float64(len(arc.recs))
	vessels := byVessel(arc.recs)
	var statics []vesselInfo
	for _, recs := range vessels {
		statics = append(statics, arc.statics[recs[0].MMSI])
	}

	// Engine.SubmitPosition end to end, without TCP and without a replica.
	t0 := time.Now()
	if err := submitAll(filepath.Join(dir, "probe-submit"), statics, arc.recs); err != nil {
		return err
	}
	m["ingest.submit_ns_per_record"] = since(t0) / n

	// The journal alone.
	t0 = time.Now()
	size, err := journalAll(filepath.Join(dir, "probe-journal", "j.wal"), arc.recs)
	if err != nil {
		return err
	}
	m["ingest.journal_append_ns_per_record"] = since(t0) / n
	m["ingest.journal_bytes_per_record"] = float64(size) / n

	// The online cleaner and trip tracker alone, then the inventory calls.
	var cleanNs, trackNs, nClean float64
	var obs []keyedObs
	for i, recs := range vessels {
		t0 = time.Now()
		onlineClean(recs)
		cleanNs += since(t0)
		cleaned := cleanVessel(recs)
		t0 = time.Now()
		onlineTrack(cleaned, idx)
		trackNs += since(t0)
		nClean += float64(len(cleaned))
		for _, t := range extractTrips(cleaned, idx) {
			obs = emitTrip(t, statics[i], obs)
		}
	}
	m["pipeline.online_clean_ns_per_record"] = cleanNs / n
	m["pipeline.online_track_ns_per_record"] = ratio(trackNs, nClean)
	period, master := newHeap(), newHeap()
	t0 = time.Now()
	observeAll(period, obs)
	m["inventory.observe_ns_per_obs"] = ratio(since(t0), float64(len(obs)))
	groups := float64(period.Len())
	t0 = time.Now()
	if err := master.MergeFrom(period); err != nil {
		return err
	}
	m["inventory.merge_ns_per_group"] = ratio(since(t0), groups)
	t0 = time.Now()
	snap := master.Snapshot()
	m["inventory.snapshot_us"] = since(t0) / 1e3
	m["inventory.get_ns"], m["inventory.odcells_us"] = probeLookups(snap, rand.New(rand.NewSource(1)))
	m["ingest.loop_residual_ns_per_record"] = m["ingest.submit_ns_per_record"] -
		m["ingest.journal_append_ns_per_record"] - m["pipeline.online_clean_ns_per_record"] -
		trackNs/n - m["inventory.observe_ns_per_obs"]*float64(len(obs))/n

	// What the replication surface ships, and how fast a fresh replica
	// catches up with the primary as the run left it.
	wire, entries, err := walSuffix(ls.eng, ls.replURL)
	if err != nil {
		return err
	}
	m["ingest.repl_wal_bytes_per_record"] = ratio(float64(wire), float64(entries))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	t0 = time.Now()
	rep, done, err := newReplica(ctx, ls.replURL)
	if err != nil {
		return err
	}
	target := ls.eng.WALSeq()
	ok := waitUntil(30*time.Second, func() bool { return bootstrapped(rep) })
	m["replica.bootstrap_ms"] = since(t0) / 1e6
	t0 = time.Now()
	ok = ok && waitUntil(30*time.Second, func() bool { return rep.AppliedSeq() >= target })
	if ok {
		m["replica.apply_records_per_s"] = ratio(float64(entries), since(t0)/1e9)
	}
	cancel()
	<-done
	return rep.Close()
}
