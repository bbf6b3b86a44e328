package past

import "past/internal/cert"

// SetSmartcard installs the node's smartcard, used to issue store and
// reclaim receipts when certificate verification is enabled.
func (n *Node) SetSmartcard(c *cert.Smartcard) { n.card = c }
