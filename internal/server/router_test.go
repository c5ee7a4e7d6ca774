package server_test

import (
	"net"

	"sampleview/internal/fleet"
	"sampleview/internal/server"
)

// The contract tests of package server run against a fleet router too; the
// fleet package imports server, so the router is built here and handed in.
func init() {
	server.NewRouter = func(replicas []string, writeRate float64) (func(net.Listener) error, func(), func() *server.StatsSnapshot, error) {
		r, err := fleet.New(fleet.Config{Replicas: replicas, Seed: 42, TenantWriteRate: writeRate})
		if err != nil {
			return nil, nil, nil, err
		}
		return r.Serve, r.Shutdown, r.Snapshot, r.Connect()
	}
}
