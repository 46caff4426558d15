//! Figure 3 + the §5.3 transport comparison: the VPN-everything defence.
//!
//! ```text
//! cargo run --release --example vpn_defense
//! ```

use rogue_core::experiments::{e3_vpn, e5_tcp_over_tcp};
use rogue_sim::Seed;

fn main() {
    println!("== Figure 3: VPN proxy configuration in a compromised wireless network ==\n");
    println!("{}", e3_vpn::report_body(3, Seed(5)));
    println!("The tunnel does not keep the victim off the rogue AP — it makes the rogue");
    println!("irrelevant: no cleartext ever crosses the compromised segment. And §5.2's");
    println!("pre-established authentication holds: an endpoint without the PSK is refused.\n");

    println!("== §5.3: the PPP-over-SSH (TCP-over-TCP) penalty under loss ==\n");
    println!("{}", e5_tcp_over_tcp::report_body(3, Seed(9)));
    println!("TCP encapsulation \"helpfully\" retransmits lost UDP — delivery rises but");
    println!("latency blows up: the unnecessary-retransmission drawback the paper notes.");
}
