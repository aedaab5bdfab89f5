//! Seeded inputs: the schema families each workload publishes (generated
//! by `schema_merge_workload`, printed by `schema_merge_text`) and the
//! request stream each connection sends. The same seed gives the same
//! schemas, payload text and request streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schema_merge_core::{AnnotatedSchema, KeyAssignment, Merger, WeakSchema};
use schema_merge_text::{encode_block, parse_document, print_schema, NamedSchema};
use schema_merge_workload::{schema_family, SchemaParams};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadMostly,
    DurableWrite,
    Federation,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReadMostly,
        Workload::DurableWrite,
        Workload::Federation,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMostly => "serve_read_mostly",
            Workload::DurableWrite => "serve_durable_write",
            Workload::Federation => "federation_compose",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The request whose latency is the workload's `p50_ms`.
    pub fn headline(self) -> Verb {
        match self {
            Workload::ReadMostly => Verb::Merged,
            Workload::DurableWrite => Verb::Put,
            Workload::Federation => Verb::Compose,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::DurableWrite
    }
}

/// A derived seed: one independent stream per `tag`.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Protocol verbs the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Put,
    Merged,
    Get,
    Query,
    Compose,
    Supergraph,
    Attach,
    Stats,
    List,
    Ping,
}

impl Verb {
    pub fn name(self) -> &'static str {
        match self {
            Verb::Put => "put",
            Verb::Merged => "merged",
            Verb::Get => "get",
            Verb::Query => "query",
            Verb::Compose => "compose",
            Verb::Supergraph => "supergraph",
            Verb::Attach => "attach",
            Verb::Stats => "stats",
            Verb::List => "list",
            Verb::Ping => "ping",
        }
    }
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Req {
    Put { name: String, payload: usize },
    Get(String),
    Merged,
    Query(String),
    Attach(String),
    Compose,
    Supergraph,
    Stats,
    List,
    Ping,
}

impl Req {
    pub fn verb(&self) -> Verb {
        match self {
            Req::Put { .. } => Verb::Put,
            Req::Get(_) => Verb::Get,
            Req::Merged => Verb::Merged,
            Req::Query(_) => Verb::Query,
            Req::Attach(_) => Verb::Attach,
            Req::Compose => Verb::Compose,
            Req::Supergraph => Verb::Supergraph,
            Req::Stats => Verb::Stats,
            Req::List => Verb::List,
            Req::Ping => Verb::Ping,
        }
    }
}

/// A published schema: its dot-framed wire block and the join the daemon
/// must acknowledge.
pub struct Payload {
    /// The printed document, dot-framed and terminated.
    pub block: String,
    /// The weak join of the parsed payload.
    pub joined: WeakSchema,
    /// Content hash of `joined`: the `hash=` a PUT ack must carry.
    pub hash: u64,
}

/// Prints `schema` as a one-schema document named `name`.
pub fn print_named(name: &str, schema: WeakSchema) -> String {
    print_schema(&NamedSchema {
        name: name.to_string(),
        schema: AnnotatedSchema::all_required(schema),
        keys: KeyAssignment::new(),
    })
}

fn payload(name: &str, schema: WeakSchema) -> Payload {
    let text = print_named(name, schema);
    let docs = parse_document(&text).expect("printed schemas parse back");
    let joined = Merger::new()
        .schemas(docs.iter().map(|d| d.schema.schema()))
        .join()
        .expect("a single generated schema joins")
        .into_weak();
    Payload {
        block: encode_block(&text),
        hash: joined.content_hash(),
        joined,
    }
}

fn join2(a: &WeakSchema, b: &WeakSchema) -> WeakSchema {
    Merger::new()
        .schemas([a, b])
        .join()
        .expect("generated members share an acyclic vocabulary")
        .into_weak()
}

/// Members over a shared core, the `registry/publish` family shape: every
/// member is the core plus a small delta of its own.
struct Family {
    core: WeakSchema,
    bases: Vec<WeakSchema>,
    /// `variants[m]`: further versions of member `m`.
    variants: Vec<Vec<WeakSchema>>,
}

fn family(seed: u64, members: usize, classes: usize, variants: usize) -> Family {
    let core_params = SchemaParams {
        vocabulary: classes,
        classes,
        labels: classes * 8,
        arrows: classes,
        specializations: (classes / 32).max(2),
        seed: mix(seed, 1),
    };
    let core = schema_family(&core_params, 1).remove(0);
    let delta_params = SchemaParams {
        classes: (classes / 6).max(4),
        arrows: (classes / 6).max(4),
        specializations: 0,
        seed: mix(seed, 2),
        ..core_params
    };
    let bases = schema_family(&delta_params, members)
        .iter()
        .map(|delta| join2(&core, delta))
        .collect();
    let variant_deltas = schema_family(
        &SchemaParams {
            seed: mix(seed, 3),
            ..delta_params
        },
        members * variants,
    );
    let variants = variant_deltas
        .chunks(variants)
        .map(|chunk| chunk.iter().map(|delta| join2(&core, delta)).collect())
        .collect();
    Family {
        core,
        bases,
        variants,
    }
}

/// Everything a serve workload sends, and what the replies must say.
pub struct ServeInputs {
    pub workload: Workload,
    pub seed: u64,
    pub payloads: Vec<Payload>,
    /// The requests that bring a fresh daemon to the initial population.
    pub setup: Vec<Req>,
    /// Member names in publish order (`registry/member` under federation).
    pub members: Vec<String>,
    /// `variants[m]`: payload indices of further versions of member `m`.
    variants: Vec<Vec<usize>>,
    /// `Class.label` paths over the shared core.
    queries: Vec<String>,
}

/// Members of the single-registry workloads.
const MEMBERS: usize = 32;
/// Classes in the shared core of the single-registry workloads.
const CORE_CLASSES: usize = 200;
/// Versions beyond the first per member; a writer cycles through them,
/// so consecutive publishes of one member always differ.
const VARIANTS: usize = 4;
/// Versions of the hot member of `serve_durable_write`.
const HOT_VARIANTS: usize = 64;
/// Registries attached under `federation_compose`.
pub const REGISTRIES: usize = 8;
/// Members per attached registry.
const MEMBERS_PER_REGISTRY: usize = 4;
/// Classes in the shared core of `federation_compose`.
const FEDERATION_CORE_CLASSES: usize = 120;

impl ServeInputs {
    pub fn generate(workload: Workload, seed: u64) -> ServeInputs {
        let (members, fam) = match workload {
            Workload::ReadMostly => (
                (0..MEMBERS).map(|m| format!("member-{m:02}")).collect(),
                family(seed, MEMBERS, CORE_CLASSES, VARIANTS),
            ),
            Workload::DurableWrite => {
                let mut fam = family(seed, MEMBERS, CORE_CLASSES, 1);
                // The hot member gets the long version cycle.
                let hot = schema_family(
                    &SchemaParams {
                        vocabulary: CORE_CLASSES,
                        classes: CORE_CLASSES / 6,
                        labels: CORE_CLASSES * 8,
                        arrows: CORE_CLASSES / 6,
                        specializations: 0,
                        seed: mix(seed, 4),
                    },
                    HOT_VARIANTS,
                );
                fam.variants[0] = hot.iter().map(|d| join2(&fam.core, d)).collect();
                (
                    (0..MEMBERS).map(|m| format!("member-{m:02}")).collect(),
                    fam,
                )
            }
            Workload::Federation => (
                (0..REGISTRIES * MEMBERS_PER_REGISTRY)
                    .map(|i| {
                        format!(
                            "reg{}/svc{}",
                            i / MEMBERS_PER_REGISTRY,
                            i % MEMBERS_PER_REGISTRY
                        )
                    })
                    .collect::<Vec<_>>(),
                family(
                    seed,
                    REGISTRIES * MEMBERS_PER_REGISTRY,
                    FEDERATION_CORE_CLASSES,
                    VARIANTS,
                ),
            ),
        };

        let mut payloads = Vec::new();
        let mut setup = Vec::new();
        if workload == Workload::Federation {
            setup.extend((0..REGISTRIES).map(|r| Req::Attach(format!("reg{r}"))));
        }
        for (m, base) in fam.bases.iter().enumerate() {
            payloads.push(payload(&format!("v{}", payloads.len()), base.clone()));
            setup.push(Req::Put {
                name: members[m].clone(),
                payload: payloads.len() - 1,
            });
        }
        if workload == Workload::Federation {
            setup.push(Req::Compose);
        }
        let variants = fam
            .variants
            .iter()
            .map(|versions| {
                versions
                    .iter()
                    .map(|schema| {
                        payloads.push(payload(&format!("v{}", payloads.len()), schema.clone()));
                        payloads.len() - 1
                    })
                    .collect()
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(mix(seed, 5));
        let arrows: Vec<String> = fam
            .core
            .arrow_triples()
            .map(|(class, label, _)| format!("{class}.{label}"))
            .collect();
        let queries = (0..64)
            .map(|_| arrows[rng.random_range(0..arrows.len())].clone())
            .collect();

        ServeInputs {
            workload,
            seed,
            payloads,
            setup,
            members,
            variants,
            queries,
        }
    }

    /// The bytes of one request: the command line plus, for `PUT`, its
    /// dot-framed block.
    pub fn wire(&self, req: &Req) -> String {
        match req {
            Req::Put { name, payload } => format!("PUT {name}\n{}", self.payloads[*payload].block),
            Req::Get(name) => format!("GET {name}\n"),
            Req::Merged => "MERGED\n".to_string(),
            Req::Query(path) => format!("QUERY {path}\n"),
            Req::Attach(name) => format!("ATTACH {name}\n"),
            Req::Compose => "COMPOSE\n".to_string(),
            Req::Supergraph => "SUPERGRAPH\n".to_string(),
            Req::Stats => "STATS\n".to_string(),
            Req::List => "LIST\n".to_string(),
            Req::Ping => "PING\n".to_string(),
        }
    }

    /// Connection `conn`'s request stream (0 or 1).
    pub fn stream(&self, conn: usize) -> Stream<'_> {
        Stream {
            inputs: self,
            conn,
            rng: StdRng::seed_from_u64(mix(self.seed, 10 + conn as u64)),
            issued: 0,
            puts: 0,
            next_version: vec![0; self.members.len()],
        }
    }
}

/// A connection's seeded, endless request stream.
pub struct Stream<'a> {
    inputs: &'a ServeInputs,
    conn: usize,
    rng: StdRng,
    issued: u64,
    puts: u64,
    next_version: Vec<usize>,
}

impl Stream<'_> {
    fn put(&mut self, member: usize) -> Req {
        let versions = &self.inputs.variants[member];
        let version = self.next_version[member];
        self.next_version[member] = (version + 1) % versions.len();
        self.puts += 1;
        Req::Put {
            name: self.inputs.members[member].clone(),
            payload: versions[version],
        }
    }

    pub fn next_req(&mut self) -> Req {
        let i = self.issued;
        self.issued += 1;
        let members = self.inputs.members.len();
        match (self.inputs.workload, self.conn) {
            // Every tenth request publishes the next member of this
            // connection's half of the rotation, so the two writers never
            // touch the same member. The other nine read: MERGED twice as
            // often as GET and QUERY together, so the whole stream is 60%
            // MERGED, 15% GET, 15% QUERY and 10% PUT.
            (Workload::ReadMostly, conn) => {
                if i % 10 == 9 {
                    let member = (2 * self.puts as usize + conn) % members;
                    return self.put(member);
                }
                match self.rng.random_range(0..6) {
                    0..=3 => Req::Merged,
                    4 => Req::Get(self.inputs.members[self.rng.random_range(0..members)].clone()),
                    _ => {
                        let q = &self.inputs.queries;
                        Req::Query(q[self.rng.random_range(0..q.len())].clone())
                    }
                }
            }
            // One writer republishes the hot member back to back; the
            // other reads the merged view.
            (Workload::DurableWrite, 0) => self.put(0),
            (Workload::DurableWrite, _) => Req::Merged,
            // One writer publishes into the registries in turn, composing
            // after each publish; the other reads the supergraph.
            (Workload::Federation, 0) => {
                if i % 2 == 1 {
                    return Req::Compose;
                }
                let k = self.puts as usize;
                let member = (k % REGISTRIES) * MEMBERS_PER_REGISTRY
                    + (k / REGISTRIES) % MEMBERS_PER_REGISTRY;
                self.put(member)
            }
            (Workload::Federation, _) => Req::Supergraph,
        }
    }
}
