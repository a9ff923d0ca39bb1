package noc

// LinkSite describes one channel site's attachment to the topology: which
// routers (and, for interface channels, which core) the numbered link
// connects. The network publishes its site table in link registration order
// so the fault layer can translate topology-level faults (a severed link
// between two routers) into per-site decisions, and back again into the
// canonical fault set the routing layer rebuilds tables from.
type LinkSite struct {
	// Src and Dst are the router endpoints of an inter-router channel.
	// For an interface channel one side is -1: an inject channel (NI to
	// router) has Src -1, an eject channel (router to NI) has Dst -1.
	Src, Dst NodeID
	// Core is the attached core of an interface channel, -1 for
	// inter-router channels.
	Core NodeID
}
