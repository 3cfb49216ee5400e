//! The three benchmark workloads, as campaign spec texts derived from one
//! seed.
//!
//! Every workload is a closed-loop batch: its campaigns run to
//! completion, one after another, through the user-facing campaign
//! surface. The sizes are scaled so that one cold pass takes a few
//! seconds on a 2-core box and a run repeats it several times.

/// The engine thread count the `protocol-grid` workload runs with; the
/// other workloads run on one thread so their layer split is serial.
const GRID_THREADS: usize = 2;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Elimination-bound coded broadcast on a cheap adversary.
    CodedFast,
    /// Forwarding and indexed broadcast under O(n²)-per-round
    /// topology models.
    DynamicTopology,
    /// Many short mixed cells on two threads: the e21 protocol matrix, a
    /// delivery-model grid and a quorum grid.
    ProtocolGrid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CodedFast,
        Workload::DynamicTopology,
        Workload::ProtocolGrid,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CodedFast => "coded-fast",
            Workload::DynamicTopology => "dynamic-topology",
            Workload::ProtocolGrid => "protocol-grid",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {s:?}; valid: {}", names.join(", "))
            })
    }

    /// Engine threads for this workload.
    pub fn threads(self) -> usize {
        match self {
            Workload::ProtocolGrid => GRID_THREADS,
            _ => 1,
        }
    }

    /// The workload's campaign spec texts for `seed`. The seed derives
    /// every campaign's `instance_seed` and run seeds, so the same seed
    /// gives the same inputs and another seed gives other instances of
    /// the same shape.
    pub fn campaign_texts(self, seed: u64) -> Vec<String> {
        let mut stream = 0u64;
        let mut camp = |id: &str, body: &str, runs: usize| {
            stream += 1;
            let seeds: Vec<String> = (0..runs)
                .map(|i| derive(seed, stream * 100 + i as u64 + 1).to_string())
                .collect();
            format!(
                "id = {id}\nkernel = auto\n{body}\nseeds = {}\ninstance_seed = {}\n",
                seeds.join(", "),
                derive(seed, stream * 100)
            )
        };
        match self {
            // Elimination plus compose dominate; the adversary is cheap.
            // One cell per elimination family (Gf2Cell, Gf256Cell,
            // DenseCell) plus the indexed Gf2Cell view.
            Workload::CodedFast => vec![
                camp(
                    "cf-gf2",
                    "protocol = field-broadcast(gf2)\nadversaries = random-connected\n\
                     n = 384\nk = n\nd = 16\nb = 2d\ncap = 100nn",
                    2,
                ),
                camp(
                    "cf-gf256",
                    "protocol = field-broadcast(gf256)\nadversaries = random-connected\n\
                     n = 160\nk = n\nd = 16\nb = 2d\ncap = 100nn",
                    2,
                ),
                camp(
                    "cf-gf257",
                    "protocol = field-broadcast(gf257)\nadversaries = random-connected\n\
                     n = 96\nk = n\nd = 16\nb = 2d\ncap = 100nn",
                    2,
                ),
                camp(
                    "cf-indexed",
                    "protocol = indexed-broadcast\nadversaries = random-connected\n\
                     n = 256\nk = n\nd = 16\nb = 2d\ncap = 100nn",
                    2,
                ),
            ],
            // Topology generation dominates: the forwarding schedule is a
            // fixed 2n rounds whatever the seed, and k = 16 keeps the
            // indexed cell's elimination small beside its n = 4096
            // edge-Markov topologies (at k = 64 elimination is a third
            // of that cell).
            Workload::DynamicTopology => vec![
                camp(
                    "dt-forward",
                    "protocol = token-forwarding\n\
                     scenario = edge-markov(0.001,0.25), waypoint(0.08,0.02)\n\
                     n = 512\nk = 4\nd = 16\nb = 2d\ncap = 100nn",
                    1,
                ),
                camp(
                    "dt-indexed",
                    "protocol = indexed-broadcast\nscenario = edge-markov(0.001,0.25)\n\
                     n = 4096\nk = 16\nd = 16\nb = 2d\ncap = 100nn",
                    1,
                ),
            ],
            // The reference state machines behind ErasedCell, the
            // delivery planner and QuorumCell, on many short cells.
            Workload::ProtocolGrid => vec![
                camp(
                    "pg-e21",
                    "protocol = token-forwarding, pipelined-forwarding(8), greedy-forward\n\
                     protocol = priority-forward, naive-coded, indexed-broadcast\n\
                     protocol = field-broadcast(gf256), centralized\n\
                     adversaries = shuffled-path\n\
                     scenario = edge-markov(0.1,0.3), churn(0.2,random-connected)\n\
                     n = 40\nk = n\nd = lgn+1\nb = 2d\ncap = 100nn",
                    3,
                ),
                camp(
                    "pg-delivery",
                    "protocol = indexed-broadcast, field-broadcast(gf2), field-broadcast(gf256)\n\
                     adversaries = shuffled-path, edge-markov(0.1,0.3)\n\
                     delivery = reliable, lossy(eps=0.3), radio(p=0.2)\n\
                     n = 64\nk = n\nd = lgn+1\nb = 2d\ncap = 100nn",
                    3,
                ),
                camp(
                    "pg-quorum",
                    "protocol = quorum-watermark(f=2), quorum-decide(f=2,q=4)\n\
                     adversaries = churn(0.15,random-connected), edge-markov(0.05,0.2)\n\
                     delivery = reliable, lossy(eps=0.2), radio(p=0.3)\n\
                     n = 32\nk = n\nd = lgn+1\nb = 2d\ncap = 200nn",
                    3,
                ),
            ],
        }
    }
}

/// splitmix64's output function: a bijective 64-bit mixer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `stream`-th seed derived from the benchmark seed, kept to six
/// digits so campaign texts and labels stay readable.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(mix(seed) ^ stream) % 1_000_000
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyncode_engine::Campaign;

    #[test]
    fn campaigns_parse_and_follow_the_seed() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Ok(w));
            let a = w.campaign_texts(1);
            assert_eq!(a, w.campaign_texts(1), "same seed, same inputs");
            assert_ne!(a, w.campaign_texts(2), "another seed, other inputs");
            for text in &a {
                let c = Campaign::parse(text).expect("workload campaign parses");
                assert_eq!(c.kernel, dyncode_engine::Kernel::Auto, "{}", c.id);
            }
        }
        assert!(Workload::parse("nope").unwrap_err().contains("coded-fast"));
    }
}
