//! The concrete packet record used by the evaluation, and its schema.
//!
//! The paper's experiments run against `PKT`-style streams sniffed from a
//! network interface. Our synthetic feeds (see `sso-netgen`) produce
//! [`Packet`]s; the DSMS converts them to [`Tuple`]s against [`Packet::schema`].
//!
//! Field inventory (all timestamps are nanoseconds since an arbitrary
//! epoch; `time` is seconds, derived from `uts`):
//!
//! | name   | type | note |
//! |--------|------|------|
//! | `time` | u64, increasing | second-granularity timestamp |
//! | `uts`  | u64 | nanosecond-granularity timestamp, "timestamp-ness cast away"; the paper uses it "to make each tuple its own group" |
//! | `srcIP`| u64 | IPv4 as integer |
//! | `destIP`| u64 | IPv4 as integer |
//! | `srcPort`| u64 | |
//! | `destPort`| u64 | |
//! | `proto`| u64 | IP protocol number |
//! | `len`  | u64 | IP packet length in bytes |

use crate::schema::{Field, FieldType, Ordering, Schema};
use crate::tuple::Tuple;
use crate::value::Value;

/// IP protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// ICMP (protocol number 1).
    Icmp,
    /// Anything else, by protocol number.
    Other(u8),
}

impl Protocol {
    /// The IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(n) => n,
        }
    }

    /// Build from an IANA protocol number.
    pub fn from_number(n: u8) -> Self {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            other => Protocol::Other(other),
        }
    }
}

/// Protocol number 0, so that [`Packet::default`] is all zeros.
impl Default for Protocol {
    fn default() -> Self {
        Protocol::Other(0)
    }
}

/// A captured (synthetic) IP packet header. The default packet is all
/// zeros: it stands for a record moved out of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Packet {
    /// Nanosecond-granularity capture timestamp.
    pub uts: u64,
    /// Source IPv4 address as a 32-bit integer.
    pub src_ip: u32,
    /// Destination IPv4 address as a 32-bit integer.
    pub dest_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dest_port: u16,
    /// Transport protocol.
    pub proto: Protocol,
    /// IP packet length in bytes.
    pub len: u32,
}

impl Packet {
    /// Second-granularity timestamp derived from [`Packet::uts`].
    pub fn time(&self) -> u64 {
        self.uts / 1_000_000_000
    }

    /// The canonical `PKT` schema matching [`Packet::to_tuple`].
    pub fn schema() -> Schema {
        Schema::new(
            "PKT",
            vec![
                Field::increasing("time", FieldType::U64),
                // `uts` is physically increasing, but the paper uses it
                // "with its timestamp-ness cast away" so that grouping by
                // uts makes each packet its own group WITHOUT closing the
                // query window on every packet. We therefore leave it
                // unordered in the schema; `time` alone drives windows.
                Field { name: "uts".to_string(), ty: FieldType::U64, ordering: Ordering::None },
                Field::new("srcIP", FieldType::U64),
                Field::new("destIP", FieldType::U64),
                Field::new("srcPort", FieldType::U64),
                Field::new("destPort", FieldType::U64),
                Field::new("proto", FieldType::U64),
                Field::new("len", FieldType::U64),
            ],
        )
    }

    /// Column `c` of [`Packet::schema`] (`None` past its end), read
    /// without building the tuple. The one statement of the column
    /// order: [`Packet::to_tuple`] and [`Packet::write_tuple`] read
    /// every column through it.
    #[inline]
    pub fn column(&self, c: usize) -> Option<u64> {
        Some(match c {
            0 => self.time(),
            1 => self.uts,
            2 => self.src_ip as u64,
            3 => self.dest_ip as u64,
            4 => self.src_port as u64,
            5 => self.dest_port as u64,
            6 => self.proto.number() as u64,
            7 => self.len as u64,
            _ => return None,
        })
    }

    /// The values of [`Packet::schema`]'s fields, in order.
    #[inline]
    fn values(&self) -> [u64; 8] {
        std::array::from_fn(|c| self.column(c).expect("PKT has eight columns"))
    }

    /// Convert to a positional tuple matching [`Packet::schema`].
    pub fn to_tuple(&self) -> Tuple {
        let [time, uts, src_ip, dest_ip, src_port, dest_port, proto, len] = self.values();
        Tuple::new(vec![
            Value::U64(time),
            Value::U64(uts),
            Value::U64(src_ip),
            Value::U64(dest_ip),
            Value::U64(src_port),
            Value::U64(dest_port),
            Value::U64(proto),
            Value::U64(len),
        ])
    }

    /// [`Packet::to_tuple`] into a tuple the caller already has,
    /// whatever it held: the "memory copy" into a ring-buffer slot. A
    /// recycled tuple is rewritten in place, without touching the
    /// allocator.
    pub fn write_tuple(&self, out: &mut Tuple) {
        out.refill_u64(self.values());
    }

    /// The flow 5-tuple key `(srcIP, destIP, srcPort, destPort, proto)`.
    pub fn flow_key(&self) -> (u32, u32, u16, u16, u8) {
        (self.src_ip, self.dest_ip, self.src_port, self.dest_port, self.proto.number())
    }
}

/// Format an IPv4 integer in dotted-quad notation.
pub fn format_ipv4(ip: u32) -> String {
    format!("{}.{}.{}.{}", (ip >> 24) & 0xff, (ip >> 16) & 0xff, (ip >> 8) & 0xff, ip & 0xff)
}

/// Parse a dotted-quad IPv4 string into its integer form.
pub fn parse_ipv4(s: &str) -> Option<u32> {
    let mut parts = s.split('.');
    let mut ip: u32 = 0;
    for _ in 0..4 {
        let octet: u32 = parts.next()?.parse().ok()?;
        if octet > 255 {
            return None;
        }
        ip = (ip << 8) | octet;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(ip)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet {
            uts: 3_500_000_000,
            src_ip: parse_ipv4("10.0.0.1").unwrap(),
            dest_ip: parse_ipv4("192.168.1.200").unwrap(),
            src_port: 443,
            dest_port: 51000,
            proto: Protocol::Tcp,
            len: 1500,
        }
    }

    #[test]
    fn time_derives_from_uts() {
        assert_eq!(pkt().time(), 3);
        let mut p = pkt();
        p.uts = 999_999_999;
        assert_eq!(p.time(), 0);
    }

    #[test]
    fn tuple_matches_schema() {
        let p = pkt();
        let t = p.to_tuple();
        let s = Packet::schema();
        t.check_arity(&s).unwrap();
        assert_eq!(t.get_named(&s, "time").unwrap(), &Value::U64(3));
        assert_eq!(t.get_named(&s, "uts").unwrap(), &Value::U64(3_500_000_000));
        assert_eq!(t.get_named(&s, "len").unwrap(), &Value::U64(1500));
        assert_eq!(t.get_named(&s, "proto").unwrap(), &Value::U64(6));
        assert_eq!(t.get_named(&s, "srcIP").unwrap(), &Value::U64(0x0a000001));
    }

    fn arb_value(shared: std::sync::Arc<str>) -> impl proptest::strategy::Strategy<Value = Value> {
        use proptest::prelude::*;
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<u64>().prop_map(Value::U64),
            any::<i64>().prop_map(Value::I64),
            (-1e9f64..1e9).prop_map(Value::F64),
            Just(Value::Str(shared)),
        ]
    }

    proptest::proptest! {
        /// A column read from the packet is the tuple's column.
        #[test]
        fn column_is_the_tuples_column(
            uts in proptest::prelude::any::<u64>(),
            src_ip in proptest::prelude::any::<u32>(),
            dest_ip in proptest::prelude::any::<u32>(),
            src_port in proptest::prelude::any::<u16>(),
            dest_port in proptest::prelude::any::<u16>(),
            proto in proptest::prelude::any::<u8>(),
            len in proptest::prelude::any::<u32>(),
        ) {
            let proto = Protocol::from_number(proto);
            let p = Packet { uts, src_ip, dest_ip, src_port, dest_port, proto, len };
            let tuple = p.to_tuple();
            for c in 0..Packet::schema().arity() + 2 {
                let want = match tuple.get(c) {
                    Value::U64(v) => Some(*v),
                    _ => None,
                };
                proptest::prop_assert_eq!(p.column(c), want, "column {}", c);
            }
        }

        /// Overwriting a recycled tuple — any arity, any value kinds —
        /// is indistinguishable from building a fresh one, and releases
        /// whatever the dead tuple still referenced.
        #[test]
        fn write_tuple_over_a_dirty_tuple_equals_to_tuple(
            uts in proptest::prelude::any::<u64>(),
            ip in proptest::prelude::any::<u32>(),
            port in proptest::prelude::any::<u16>(),
            proto in proptest::prelude::any::<u8>(),
            dirty in proptest::collection::vec(arb_value("dead".into()), 0..13),
        ) {
            let p = Packet {
                uts,
                src_ip: ip,
                dest_ip: !ip,
                src_port: port,
                dest_port: !port,
                proto: Protocol::from_number(proto),
                len: ip >> 16,
            };
            let held: Vec<std::sync::Arc<str>> = dirty
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect();
            let mut slot = Tuple::new(dirty);
            let refs_before = held.first().map(std::sync::Arc::strong_count);
            p.write_tuple(&mut slot);
            proptest::prop_assert_eq!(&slot, &p.to_tuple());
            proptest::prop_assert_eq!(slot.arity(), Packet::schema().arity());
            // Every `Str` the dead tuple held gave its reference back.
            let refs_after = held.first().map(std::sync::Arc::strong_count);
            proptest::prop_assert_eq!(refs_after, refs_before.map(|n| n - held.len()));
        }
    }

    #[test]
    fn schema_orders_time_but_not_uts() {
        // uts has its "timestamp-ness cast away" (see Packet::schema).
        let s = Packet::schema();
        assert!(s.is_ordered("time"));
        assert!(!s.is_ordered("uts"));
        assert!(!s.is_ordered("len"));
    }

    #[test]
    fn ipv4_round_trip() {
        for s in ["0.0.0.0", "255.255.255.255", "10.1.2.3", "192.168.0.1"] {
            assert_eq!(format_ipv4(parse_ipv4(s).unwrap()), s);
        }
        assert_eq!(parse_ipv4("256.0.0.1"), None);
        assert_eq!(parse_ipv4("1.2.3"), None);
        assert_eq!(parse_ipv4("1.2.3.4.5"), None);
        assert_eq!(parse_ipv4("a.b.c.d"), None);
    }

    #[test]
    fn protocol_numbers_round_trip() {
        for p in [Protocol::Tcp, Protocol::Udp, Protocol::Icmp, Protocol::Other(89)] {
            assert_eq!(Protocol::from_number(p.number()), p);
        }
    }

    #[test]
    fn flow_key_fields() {
        let p = pkt();
        assert_eq!(p.flow_key(), (p.src_ip, p.dest_ip, 443, 51000, 6));
    }
}
