package simnet

import "fmt"

// This file builds the topologies used in the experiments. Theorems 2-4
// and 7 assume a fully-connected service; the recovery and partition
// experiments use sparser graphs.

// FullMesh links every pair of the given nodes with cfg, the topology the
// paper's theorems assume.
func FullMesh(n *Network, ids []NodeID, cfg LinkConfig) error {
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if err := n.Connect(ids[i], ids[j], cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Ring links the nodes in a cycle.
func Ring(n *Network, ids []NodeID, cfg LinkConfig) error {
	if len(ids) < 2 {
		return fmt.Errorf("simnet: ring needs >= 2 nodes, got %d", len(ids))
	}
	for i := range ids {
		if err := n.Connect(ids[i], ids[(i+1)%len(ids)], cfg); err != nil {
			return err
		}
	}
	return nil
}

// Line links the nodes in a path.
func Line(n *Network, ids []NodeID, cfg LinkConfig) error {
	if len(ids) < 2 {
		return fmt.Errorf("simnet: line needs >= 2 nodes, got %d", len(ids))
	}
	for i := 0; i+1 < len(ids); i++ {
		if err := n.Connect(ids[i], ids[i+1], cfg); err != nil {
			return err
		}
	}
	return nil
}

// Star links every leaf to the hub.
func Star(n *Network, hub NodeID, leaves []NodeID, cfg LinkConfig) error {
	for _, leaf := range leaves {
		if err := n.Connect(hub, leaf, cfg); err != nil {
			return err
		}
	}
	return nil
}
