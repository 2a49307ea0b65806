//! The `remote_interface!` interface generator.
//!
//! The paper ships a tool (`rmic -batch`) that mechanically derives batch
//! and cursor interfaces from remote interfaces (Section 3.2). Rust has no
//! runtime proxying, so this macro *is* that tool, run at compile time. One
//! invocation
//!
//! ```
//! use brmi::remote_interface;
//!
//! remote_interface! {
//!     /// A file in a remote filesystem.
//!     pub interface File {
//!         fn get_name() -> String;
//!         fn get_size() -> i64;
//!         fn delete();
//!     }
//! }
//! ```
//!
//! generates seven items, following the paper's naming convention:
//!
//! | item | role |
//! |---|---|
//! | `trait File` | server-side service trait (the remote interface) |
//! | `FileSkeleton` | dispatch glue implementing [`RemoteObject`] |
//! | `FileStub` | typed RMI client stub (one round trip per call) |
//! | `FileLoopback` | server-side proxy for a stub marshalled home (RMI identity semantics, Section 4.4) |
//! | `BFile` | batch interface: methods record and return futures/stubs |
//! | `CFile` | cursor interface over `remote_array File` results (Section 3.4) |
//! | `impl Companions for dyn File` | compile-time link between the trait and its generated types |
//!
//! ## Method grammar
//!
//! * `fn m(a: T, ...) -> T;` — a by-copy result (`T: ToValue + FromValue`);
//!   the batch interface returns `BatchFuture<T>`.
//! * `fn m(...);` — void; the batch interface returns `BatchFuture<()>`.
//! * `fn m(...) -> remote I;` — a remote-object result; the batch
//!   interface returns `BI`.
//! * `fn m(...) -> remote_array I;` — an array of remote objects; the
//!   batch interface returns the cursor `CI`.
//! * argument `a: remote I` — a remote-object parameter; the RMI stub
//!   takes `&IStub`, the batch interface takes any
//!   [`BatchParam<dyn I>`](crate::BatchParam) (a `BI` or a `CI`).
//!
//! ## Method metadata and `#[read_only]`
//!
//! A method may be declared read-only by adding a `#[read_only]` marker
//! anywhere among its attributes — conventionally after the doc comments,
//! but either order is accepted:
//!
//! ```
//! use brmi::remote_interface;
//!
//! remote_interface! {
//!     pub interface Account {
//!         /// Never mutates server state: cacheable and retry-safe.
//!         #[read_only]
//!         fn get_balance() -> f64;
//!         fn deposit(amount: f64);
//!     }
//! }
//! ```
//!
//! Every method — annotated or not — is compiled into a
//! [`MethodMeta`](brmi_wire::MethodMeta) descriptor (name, mutability,
//! arity, result kind). The table is reachable three ways:
//!
//! * `AccountSkeleton::METHOD_META` — the full table, in declaration
//!   order, plus one `AccountSkeleton::METHOD_GET_BALANCE`-style constant
//!   per method (for exception-policy rules);
//! * `<dyn Account as Companions>::interface_meta()` — the
//!   [`InterfaceMeta`](brmi_wire::InterfaceMeta) used to feed a
//!   [`MethodRegistry`](brmi_wire::MethodRegistry) for the relay tier;
//! * [`RemoteObject::method_meta`] — per-object lookup, consulted by the
//!   batch executor at dispatch time.
//!
//! `#[read_only]` is a promise, not a proof: the middleware trusts it the
//! way the paper trusts interface declarations. A read-only method's
//! result may be served from the relay-tier read cache and its failures
//! are safe to retry, so annotating a mutating method is an application
//! bug. The promise also covers *aliasing*: cache invalidation is
//! per-target-object, so only annotate methods whose results depend
//! solely on state mutated through their own object. An aggregate read
//! whose backing state is edited via sibling objects (a directory count
//! changed by deleting a *file*) must stay unannotated — or its writers
//! must invalidate explicitly at the fetcher tier.
//!
//! [`RemoteObject`]: brmi_rmi::RemoteObject
//! [`RemoteObject::method_meta`]: brmi_rmi::RemoteObject::method_meta

/// Generates the server trait, skeleton, RMI stub, loopback proxy, batch
/// interface and cursor interface for one remote interface. See the
/// [module documentation](self) for the grammar.
#[macro_export]
macro_rules! remote_interface {
    // ---------------------------------------------------------------
    // Entry: munch methods, normalizing each into
    //   [ #[meta]* fn name ro(true|false) ret(...) args((v a Ty)|(r a Iface)...) ]
    // ---------------------------------------------------------------
    (
        $(#[$imeta:meta])*
        pub interface $I:ident { $($methods:tt)* }
    ) => {
        $crate::remote_interface!(@methods [$(#[$imeta])*] $I {} $($methods)*);
    };

    (@methods [$($imeta:tt)*] $I:ident {$($acc:tt)*}) => {
        $crate::remote_interface!(@emit [$($imeta)*] $I {$($acc)*});
    };
    // Every method first passes through the attribute muncher below, which
    // lifts `#[read_only]` out of the attribute list wherever it appears —
    // before or after doc comments — so declarations can follow the
    // conventional docs-first Rust style.
    (@methods [$($imeta:tt)*] $I:ident {$($acc:tt)*} $($rest:tt)+) => {
        $crate::remote_interface!(@mattrs [$($imeta)*] $I {$($acc)*} [] ro(false) $($rest)+);
    };

    // ---------------------------------------------------------------
    // Per-method attribute munching: one attribute at a time, keeping
    // ordinary metas (doc comments included) in order and folding each
    // `#[read_only]` marker into the ro(..) flag. The literal arm must
    // stay above the `$meta:meta` arm or the general one would swallow
    // the marker and re-emit it on generated items.
    // ---------------------------------------------------------------
    (@mattrs [$($imeta:tt)*] $I:ident {$($acc:tt)*} [$($mm:tt)*] ro($ro:tt)
        #[read_only] $($rest:tt)*
    ) => {
        $crate::remote_interface!(@mattrs [$($imeta)*] $I {$($acc)*} [$($mm)*] ro(true) $($rest)*);
    };
    (@mattrs [$($imeta:tt)*] $I:ident {$($acc:tt)*} [$($mm:tt)*] ro($ro:tt)
        #[$meta:meta] $($rest:tt)*
    ) => {
        $crate::remote_interface!(@mattrs [$($imeta)*] $I {$($acc)*}
            [$($mm)* #[$meta]] ro($ro) $($rest)*);
    };
    // remote-returning
    (@mattrs [$($imeta:tt)*] $I:ident {$($acc:tt)*} [$($mm:tt)*] ro($ro:tt)
        fn $m:ident ($($args:tt)*) -> remote $R:ident ; $($rest:tt)*
    ) => {
        $crate::remote_interface!(@normargs [$($imeta)*] $I {$($acc)*}
            {$($mm)* fn $m ro($ro) ret(remote $R)} [] ($($args)*) ; $($rest)*);
    };
    // array-returning (cursor)
    (@mattrs [$($imeta:tt)*] $I:ident {$($acc:tt)*} [$($mm:tt)*] ro($ro:tt)
        fn $m:ident ($($args:tt)*) -> remote_array $R:ident ; $($rest:tt)*
    ) => {
        $crate::remote_interface!(@normargs [$($imeta)*] $I {$($acc)*}
            {$($mm)* fn $m ro($ro) ret(array $R)} [] ($($args)*) ; $($rest)*);
    };
    // value-returning
    (@mattrs [$($imeta:tt)*] $I:ident {$($acc:tt)*} [$($mm:tt)*] ro($ro:tt)
        fn $m:ident ($($args:tt)*) -> $T:ty ; $($rest:tt)*
    ) => {
        $crate::remote_interface!(@normargs [$($imeta)*] $I {$($acc)*}
            {$($mm)* fn $m ro($ro) ret(value $T)} [] ($($args)*) ; $($rest)*);
    };
    // void (`#[read_only]` on a void method is legal but pointless)
    (@mattrs [$($imeta:tt)*] $I:ident {$($acc:tt)*} [$($mm:tt)*] ro($ro:tt)
        fn $m:ident ($($args:tt)*) ; $($rest:tt)*
    ) => {
        $crate::remote_interface!(@normargs [$($imeta)*] $I {$($acc)*}
            {$($mm)* fn $m ro($ro) ret(void)} [] ($($args)*) ; $($rest)*);
    };

    // ---------------------------------------------------------------
    // Argument normalization
    // ---------------------------------------------------------------
    (@normargs [$($imeta:tt)*] $I:ident {$($acc:tt)*} {$($head:tt)*} [$($aacc:tt)*] () ; $($rest:tt)*) => {
        $crate::remote_interface!(@methods [$($imeta)*] $I
            {$($acc)* [$($head)* args($($aacc)*)]} $($rest)*);
    };
    (@normargs [$($imeta:tt)*] $I:ident {$($acc:tt)*} {$($head:tt)*} [$($aacc:tt)*]
        ($a:ident : remote $R:ident , $($more:tt)+) ; $($rest:tt)*) => {
        $crate::remote_interface!(@normargs [$($imeta)*] $I {$($acc)*} {$($head)*}
            [$($aacc)* (r $a $R)] ($($more)+) ; $($rest)*);
    };
    (@normargs [$($imeta:tt)*] $I:ident {$($acc:tt)*} {$($head:tt)*} [$($aacc:tt)*]
        ($a:ident : remote $R:ident) ; $($rest:tt)*) => {
        $crate::remote_interface!(@normargs [$($imeta)*] $I {$($acc)*} {$($head)*}
            [$($aacc)* (r $a $R)] () ; $($rest)*);
    };
    (@normargs [$($imeta:tt)*] $I:ident {$($acc:tt)*} {$($head:tt)*} [$($aacc:tt)*]
        ($a:ident : $T:ty , $($more:tt)+) ; $($rest:tt)*) => {
        $crate::remote_interface!(@normargs [$($imeta)*] $I {$($acc)*} {$($head)*}
            [$($aacc)* (v $a $T)] ($($more)+) ; $($rest)*);
    };
    (@normargs [$($imeta:tt)*] $I:ident {$($acc:tt)*} {$($head:tt)*} [$($aacc:tt)*]
        ($a:ident : $T:ty) ; $($rest:tt)*) => {
        $crate::remote_interface!(@normargs [$($imeta)*] $I {$($acc)*} {$($head)*}
            [$($aacc)* (v $a $T)] () ; $($rest)*);
    };

    // ---------------------------------------------------------------
    // Emission of the generated items
    // ---------------------------------------------------------------
    (@emit [$($imeta:tt)*] $I:ident {
        $( [ $(#[$mm:meta])* fn $m:ident ro($ro:tt) ret($($mret:tt)*) args($( ($at:ident $a:ident $($aty:tt)*) )*) ] )*
    }) => {
        $crate::__rt::paste! {
            // ------------------------- server trait -------------------------
            $($imeta)*
            pub trait $I: Send + Sync + 'static {
                $(
                    $(#[$mm])*
                    #[allow(clippy::too_many_arguments)]
                    fn $m(&self $(, $a: $crate::remote_interface!(@sv_arg_ty $at $($aty)*))*)
                        -> ::core::result::Result<
                            $crate::remote_interface!(@sv_ret_ty $($mret)*),
                            $crate::__rt::RemoteError,
                        >;
                )*
                /// The exported id this value stands for, when it is a
                /// marshalled stub rather than a local object.
                #[doc(hidden)]
                fn __remote_id(&self) -> ::core::option::Option<$crate::__rt::ObjectId> {
                    ::core::option::Option::None
                }
            }

            // --------------------------- skeleton ---------------------------
            #[doc = concat!("Dispatch glue exporting a [`", stringify!($I), "`] service.")]
            pub struct [<$I Skeleton>] {
                inner: $crate::__rt::Arc<dyn $I>,
            }

            impl [<$I Skeleton>] {
                /// Wraps a service implementation for export.
                pub fn new(inner: $crate::__rt::Arc<dyn $I>) -> $crate::__rt::Arc<Self> {
                    $crate::__rt::Arc::new(Self { inner })
                }

                /// Wraps a service implementation as a dispatchable remote
                /// object (what [`RmiServer::export`] takes).
                ///
                /// [`RmiServer::export`]: brmi_rmi::RmiServer::export
                pub fn remote_arc(
                    inner: $crate::__rt::Arc<dyn $I>,
                ) -> $crate::__rt::Arc<dyn $crate::__rt::RemoteObject> {
                    $crate::__rt::Arc::new(Self { inner })
                }

                /// The wrapped service.
                pub fn inner(&self) -> $crate::__rt::Arc<dyn $I> {
                    $crate::__rt::Arc::clone(&self.inner)
                }

                #[doc = concat!(
                    "Compile-time descriptors for every [`", stringify!($I),
                    "`] method, in declaration order."
                )]
                pub const METHOD_META: &'static [$crate::__rt::MethodMeta] = &[
                    $(
                        $crate::__rt::MethodMeta {
                            interface: stringify!($I),
                            name: stringify!($m),
                            read_only: $ro,
                            arity: $crate::remote_interface!(@count $( ($at) )*),
                            returns_remote:
                                $crate::remote_interface!(@returns_remote $($mret)*),
                        },
                    )*
                ];

                #[doc = concat!(
                    "The [`", stringify!($I), "`] method table as one ",
                    "queryable descriptor (feed it to a `MethodRegistry`)."
                )]
                pub const INTERFACE_META: &'static $crate::__rt::InterfaceMeta =
                    &$crate::__rt::InterfaceMeta {
                        interface: stringify!($I),
                        methods: Self::METHOD_META,
                    };

                $(
                    #[doc = concat!(
                        "Descriptor for [`", stringify!($I), "::",
                        stringify!($m), "`]."
                    )]
                    pub const [<METHOD_ $m:upper>]: &'static $crate::__rt::MethodMeta =
                        &$crate::__rt::MethodMeta {
                            interface: stringify!($I),
                            name: stringify!($m),
                            read_only: $ro,
                            arity: $crate::remote_interface!(@count $( ($at) )*),
                            returns_remote:
                                $crate::remote_interface!(@returns_remote $($mret)*),
                        };
                )*
            }

            impl ::std::fmt::Debug for [<$I Skeleton>] {
                fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                    f.debug_struct(stringify!([<$I Skeleton>])).finish_non_exhaustive()
                }
            }

            impl $crate::__rt::RemoteObject for [<$I Skeleton>] {
                fn interface_name(&self) -> &'static str {
                    stringify!($I)
                }

                #[allow(unused_mut, unused_variables)]
                fn invoke(
                    &self,
                    __method: &str,
                    __args: &[$crate::__rt::InArg<'_>],
                    __ctx: &$crate::__rt::CallCtx,
                ) -> ::core::result::Result<$crate::__rt::OutValue, $crate::__rt::RemoteError> {
                    $(
                        if __method == stringify!($m) {
                            const __ARITY: usize =
                                $crate::remote_interface!(@count $( ($at) )*);
                            if __args.len() != __ARITY {
                                return ::core::result::Result::Err($crate::__rt::bad_arity(
                                    stringify!($m),
                                    __ARITY,
                                    __args.len(),
                                ));
                            }
                            let mut __iter = __args.iter();
                            $(
                                let $a = $crate::remote_interface!(
                                    @extract_arg ($at $($aty)*) __iter __ctx
                                );
                            )*
                            let __ret = self.inner.$m($($a),*);
                            return $crate::remote_interface!(@wrap_ret ($($mret)*) __ret);
                        }
                    )*
                    ::core::result::Result::Err($crate::__rt::no_such_method(
                        stringify!($I),
                        __method,
                    ))
                }

                fn method_meta(
                    &self,
                    __method: &str,
                ) -> ::core::option::Option<&'static $crate::__rt::MethodMeta> {
                    Self::INTERFACE_META.method(__method)
                }

                fn as_any(&self) -> &dyn $crate::__rt::Any {
                    self
                }
            }

            // --------------------------- loopback ---------------------------
            #[doc = concat!(
                "Server-side proxy for a [`", stringify!($I), "`] stub that was ",
                "marshalled back to its own server (RMI identity semantics, paper §4.4)."
            )]
            pub struct [<$I Loopback>] {
                target: $crate::__rt::ObjectId,
                loopback: $crate::__rt::Arc<dyn $crate::__rt::Loopback>,
            }

            impl [<$I Loopback>] {
                #[doc(hidden)]
                pub fn new(
                    target: $crate::__rt::ObjectId,
                    loopback: $crate::__rt::Arc<dyn $crate::__rt::Loopback>,
                ) -> Self {
                    Self { target, loopback }
                }
            }

            impl ::std::fmt::Debug for [<$I Loopback>] {
                fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                    f.debug_struct(stringify!([<$I Loopback>]))
                        .field("target", &self.target)
                        .finish_non_exhaustive()
                }
            }

            impl $I for [<$I Loopback>] {
                $(
                    fn $m(&self $(, $a: $crate::remote_interface!(@sv_arg_ty $at $($aty)*))*)
                        -> ::core::result::Result<
                            $crate::remote_interface!(@sv_ret_ty $($mret)*),
                            $crate::__rt::RemoteError,
                        >
                    {
                        let __args: ::std::vec::Vec<$crate::__rt::Value> = ::std::vec![
                            $( $crate::remote_interface!(@loopback_arg_val ($at $($aty)*) $a) ),*
                        ];
                        let __v = self.loopback.invoke(self.target, stringify!($m), __args)?;
                        $crate::remote_interface!(@loopback_ret ($($mret)*) __v (&self.loopback))
                    }
                )*

                fn __remote_id(&self) -> ::core::option::Option<$crate::__rt::ObjectId> {
                    ::core::option::Option::Some(self.target)
                }
            }

            // --------------------------- RMI stub ---------------------------
            #[doc = concat!(
                "Typed RMI client stub for [`", stringify!($I), "`]: ",
                "one network round trip per call."
            )]
            #[derive(Debug, Clone)]
            pub struct [<$I Stub>] {
                r: $crate::__rt::RemoteRef,
            }

            impl [<$I Stub>] {
                /// Wraps a remote reference.
                pub fn new(r: $crate::__rt::RemoteRef) -> Self {
                    Self { r }
                }

                /// The underlying remote reference.
                pub fn remote_ref(&self) -> &$crate::__rt::RemoteRef {
                    &self.r
                }

                $(
                    $(#[$mm])*
                    #[allow(clippy::too_many_arguments)]
                    pub fn $m(&self $(, $a: $crate::remote_interface!(@stub_arg_ty $at $($aty)*))*)
                        -> ::core::result::Result<
                            $crate::remote_interface!(@stub_ret_ty $($mret)*),
                            $crate::__rt::RemoteError,
                        >
                    {
                        let __args: ::std::vec::Vec<$crate::__rt::Value> = ::std::vec![
                            $( $crate::remote_interface!(@stub_arg_val ($at $($aty)*) $a) ),*
                        ];
                        let __v = self.r.invoke(stringify!($m), __args)?;
                        $crate::remote_interface!(@stub_ret_conv ($($mret)*) __v (self.r.connection()))
                    }
                )*
            }

            impl $crate::StubCtor for [<$I Stub>] {
                fn from_remote_ref(r: $crate::__rt::RemoteRef) -> Self {
                    Self::new(r)
                }
            }

            // -------------------------- batch stub --------------------------
            #[doc = concat!(
                "Batch interface for [`", stringify!($I), "`] (the paper's `B",
                stringify!($I), "`): methods record into a batch and return ",
                "futures, batch stubs or cursors."
            )]
            #[derive(Debug, Clone)]
            pub struct [<B $I>] {
                stub: $crate::BatchStub,
            }

            impl [<B $I>] {
                /// Wraps `reference` as a root of `batch` — the analogue of
                /// `BRMI.create(iface, remoteObj)`.
                pub fn new(batch: &$crate::Batch, reference: &$crate::__rt::RemoteRef) -> Self {
                    Self { stub: batch.wrap(reference) }
                }

                /// The underlying untyped batch stub.
                pub fn as_stub(&self) -> &$crate::BatchStub {
                    &self.stub
                }

                /// The batch this stub records into.
                pub fn batch(&self) -> &$crate::Batch {
                    self.stub.batch()
                }

                /// Executes the batch (see [`Batch::flush`]).
                ///
                /// # Errors
                ///
                /// Communication and recording errors.
                ///
                /// [`Batch::flush`]: crate::Batch::flush
                pub fn flush(&self) -> ::core::result::Result<(), $crate::__rt::RemoteError> {
                    self.stub.batch().flush()
                }

                /// Executes the batch and starts a chained one (see
                /// [`Batch::flush_and_continue`]).
                ///
                /// # Errors
                ///
                /// Communication and recording errors.
                ///
                /// [`Batch::flush_and_continue`]: crate::Batch::flush_and_continue
                pub fn flush_and_continue(
                    &self,
                ) -> ::core::result::Result<(), $crate::__rt::RemoteError> {
                    self.stub.batch().flush_and_continue()
                }

                /// Checks that the call that produced this stub succeeded
                /// (the paper's `ok()`, Section 3.3).
                ///
                /// # Errors
                ///
                /// Re-throws the creating call's exception.
                pub fn ok(&self) -> ::core::result::Result<(), $crate::__rt::RemoteError> {
                    self.stub.ok()
                }

                $(
                    $(#[$mm])*
                    #[allow(clippy::too_many_arguments)]
                    pub fn $m(&self $(, $a: $crate::remote_interface!(@b_arg_ty $at $($aty)*))*)
                        -> $crate::remote_interface!(@b_ret_ty $($mret)*)
                    {
                        let __args: [$crate::RecordArg; $crate::remote_interface!(@count $( ($at) )*)] = [
                            $( $crate::remote_interface!(@b_arg_val ($at $($aty)*) $a) ),*
                        ];
                        $crate::remote_interface!(@b_call ($($mret)*) (self.stub) (stringify!($m)) __args)
                    }
                )*
            }

            impl $crate::BatchCtor for [<B $I>] {
                fn from_stub(stub: $crate::BatchStub) -> Self {
                    Self { stub }
                }
            }

            impl $crate::BatchParam<dyn $I> for [<B $I>] {
                fn record_arg(&self) -> $crate::RecordArg {
                    $crate::RecordArg::Stub(self.stub.clone())
                }
            }

            // ---------------------------- cursor ----------------------------
            #[doc = concat!(
                "Cursor interface for [`", stringify!($I), "`] arrays (the ",
                "paper's `C", stringify!($I), "`, Section 3.4): before ",
                "`flush` it stands for every element; afterwards it iterates."
            )]
            #[derive(Debug, Clone)]
            pub struct [<C $I>] {
                cursor: $crate::CursorHandle,
            }

            impl [<C $I>] {
                /// The underlying untyped cursor.
                pub fn as_cursor(&self) -> &$crate::CursorHandle {
                    &self.cursor
                }

                /// Advances to the next element, updating this cursor's
                /// futures. Returns false when exhausted.
                ///
                /// (The paper calls this `next()`; it is `advance()` here so
                /// it can never collide with an interface method named
                /// `next`, as in the linked-list benchmark.)
                pub fn advance(&self) -> bool {
                    self.cursor.next()
                }

                /// Number of array elements; `None` before `flush`.
                pub fn element_count(&self) -> ::core::option::Option<u32> {
                    self.cursor.len()
                }

                /// Checks that the cursor-creating call succeeded.
                ///
                /// # Errors
                ///
                /// Re-throws the creating call's exception.
                pub fn ok(&self) -> ::core::result::Result<(), $crate::__rt::RemoteError> {
                    self.cursor.ok()
                }

                $(
                    $(#[$mm])*
                    #[allow(clippy::too_many_arguments)]
                    pub fn $m(&self $(, $a: $crate::remote_interface!(@b_arg_ty $at $($aty)*))*)
                        -> $crate::remote_interface!(@b_ret_ty $($mret)*)
                    {
                        let __args: [$crate::RecordArg; $crate::remote_interface!(@count $( ($at) )*)] = [
                            $( $crate::remote_interface!(@b_arg_val ($at $($aty)*) $a) ),*
                        ];
                        $crate::remote_interface!(@b_call ($($mret)*) (self.cursor) (stringify!($m)) __args)
                    }
                )*
            }

            impl $crate::CursorCtor for [<C $I>] {
                fn from_cursor(cursor: $crate::CursorHandle) -> Self {
                    Self { cursor }
                }
            }

            impl $crate::BatchParam<dyn $I> for [<C $I>] {
                fn record_arg(&self) -> $crate::RecordArg {
                    $crate::RecordArg::Cursor(self.cursor.clone())
                }
            }

            // -------------------------- companions --------------------------
            impl $crate::Companions for dyn $I {
                type Batch = [<B $I>];
                type Cursor = [<C $I>];
                type Stub = [<$I Stub>];

                fn interface_meta() -> &'static $crate::__rt::InterfaceMeta {
                    [<$I Skeleton>]::INTERFACE_META
                }

                fn skeleton_of(
                    inner: $crate::__rt::Arc<Self>,
                ) -> $crate::__rt::Arc<dyn $crate::__rt::RemoteObject> {
                    [<$I Skeleton>]::remote_arc(inner)
                }

                fn loopback_proxy(
                    id: $crate::__rt::ObjectId,
                    loopback: $crate::__rt::Arc<dyn $crate::__rt::Loopback>,
                ) -> $crate::__rt::Arc<Self> {
                    $crate::__rt::Arc::new([<$I Loopback>]::new(id, loopback))
                }

                fn extract_arg(
                    arg: &$crate::__rt::InArg<'_>,
                    ctx: &$crate::__rt::CallCtx,
                ) -> ::core::result::Result<$crate::__rt::Arc<Self>, $crate::__rt::RemoteError>
                {
                    match arg {
                        $crate::__rt::InArg::Remote(obj) => {
                            match obj.as_any().downcast_ref::<[<$I Skeleton>]>() {
                                ::core::option::Option::Some(skeleton) => {
                                    ::core::result::Result::Ok(skeleton.inner())
                                }
                                ::core::option::Option::None => ::core::result::Result::Err(
                                    $crate::__rt::wrong_remote_type(
                                        stringify!($I),
                                        obj.interface_name(),
                                    ),
                                ),
                            }
                        }
                        $crate::__rt::InArg::Value($crate::__rt::ValueRef::RemoteRef(id)) => {
                            ::core::result::Result::Ok($crate::__rt::Arc::new(
                                [<$I Loopback>]::new(*id, $crate::__rt::Arc::clone(&ctx.loopback)),
                            ))
                        }
                        $crate::__rt::InArg::Value(other) => ::core::result::Result::Err(
                            $crate::__rt::wrong_remote_type(stringify!($I), other.type_name()),
                        ),
                    }
                }
            }
        }
    };

    // ---------------------------------------------------------------
    // Helper arms (types) — no identifier concatenation needed: the
    // generated types are reached through `Companions` on `dyn I`.
    // ---------------------------------------------------------------
    (@sv_arg_ty v $T:ty) => { $T };
    (@sv_arg_ty r $R:ident) => { $crate::__rt::Arc<dyn $R> };

    (@sv_ret_ty value $T:ty) => { $T };
    (@sv_ret_ty void) => { () };
    (@sv_ret_ty remote $R:ident) => { $crate::__rt::Arc<dyn $R> };
    (@sv_ret_ty array $R:ident) => { ::std::vec::Vec<$crate::__rt::Arc<dyn $R>> };

    (@stub_arg_ty v $T:ty) => { $T };
    (@stub_arg_ty r $R:ident) => { &<dyn $R as $crate::Companions>::Stub };

    (@stub_ret_ty value $T:ty) => { $T };
    (@stub_ret_ty void) => { () };
    (@stub_ret_ty remote $R:ident) => { <dyn $R as $crate::Companions>::Stub };
    (@stub_ret_ty array $R:ident) => { ::std::vec::Vec<<dyn $R as $crate::Companions>::Stub> };

    (@b_arg_ty v $T:ty) => { $T };
    (@b_arg_ty r $R:ident) => { &dyn $crate::BatchParam<dyn $R> };

    (@b_ret_ty value $T:ty) => { $crate::BatchFuture<$T> };
    (@b_ret_ty void) => { $crate::BatchFuture<()> };
    (@b_ret_ty remote $R:ident) => { <dyn $R as $crate::Companions>::Batch };
    (@b_ret_ty array $R:ident) => { <dyn $R as $crate::Companions>::Cursor };

    // ---------------------------------------------------------------
    // Helper arms (expressions)
    // ---------------------------------------------------------------
    (@count) => { 0usize };
    (@count ($f:ident) $( ($r:ident) )*) => { 1usize + $crate::remote_interface!(@count $( ($r) )*) };

    (@returns_remote value $T:ty) => { false };
    (@returns_remote void) => { false };
    (@returns_remote remote $R:ident) => { true };
    (@returns_remote array $R:ident) => { true };

    (@extract_arg (v $T:ty) $iter:ident $ctx:ident) => {
        $crate::__rt::value_arg::<$T>($iter.next().expect("arity checked"))?
    };
    (@extract_arg (r $R:ident) $iter:ident $ctx:ident) => {
        <dyn $R as $crate::Companions>::extract_arg(
            $iter.next().expect("arity checked"),
            $ctx,
        )?
    };

    (@wrap_ret (value $T:ty) $e:ident) => {{
        let __v: $T = $e?;
        ::core::result::Result::Ok($crate::__rt::OutValue::Data(
            $crate::__rt::ToValue::into_value(__v),
        ))
    }};
    (@wrap_ret (void) $e:ident) => {{
        $e?;
        ::core::result::Result::Ok($crate::__rt::OutValue::Data($crate::__rt::Value::Null))
    }};
    (@wrap_ret (remote $R:ident) $e:ident) => {{
        let __v = $e?;
        ::core::result::Result::Ok($crate::__rt::OutValue::Remote(
            <dyn $R as $crate::Companions>::skeleton_of(__v),
        ))
    }};
    (@wrap_ret (array $R:ident) $e:ident) => {{
        let __v = $e?;
        ::core::result::Result::Ok($crate::__rt::OutValue::RemoteList(
            __v.into_iter()
                .map(<dyn $R as $crate::Companions>::skeleton_of)
                .collect(),
        ))
    }};

    (@loopback_arg_val (v $T:ty) $a:ident) => {
        $crate::__rt::ToValue::into_value($a)
    };
    (@loopback_arg_val (r $R:ident) $a:ident) => {
        $crate::__rt::loopback_arg_id($a.__remote_id())?
    };

    (@loopback_ret (value $T:ty) $v:ident ($lb:expr)) => {
        <$T as $crate::__rt::FromValue>::from_value($v)
    };
    (@loopback_ret (void) $v:ident ($lb:expr)) => {
        <() as $crate::__rt::FromValue>::from_value($v)
    };
    (@loopback_ret (remote $R:ident) $v:ident ($lb:expr)) => {{
        let __id = $crate::__rt::expect_remote_ref($v)?;
        ::core::result::Result::Ok(<dyn $R as $crate::Companions>::loopback_proxy(
            __id,
            $crate::__rt::Arc::clone($lb),
        ))
    }};
    (@loopback_ret (array $R:ident) $v:ident ($lb:expr)) => {{
        let __ids = $crate::__rt::expect_ref_list($v)?;
        ::core::result::Result::Ok(
            __ids
                .into_iter()
                .map(|__id| {
                    <dyn $R as $crate::Companions>::loopback_proxy(
                        __id,
                        $crate::__rt::Arc::clone($lb),
                    )
                })
                .collect(),
        )
    }};

    (@stub_arg_val (v $T:ty) $a:ident) => {
        $crate::__rt::ToValue::into_value($a)
    };
    (@stub_arg_val (r $R:ident) $a:ident) => {
        $crate::__rt::Value::RemoteRef($a.remote_ref().id())
    };

    (@stub_ret_conv (value $T:ty) $v:ident ($conn:expr)) => {
        <$T as $crate::__rt::FromValue>::from_value($v)
    };
    (@stub_ret_conv (void) $v:ident ($conn:expr)) => {
        <() as $crate::__rt::FromValue>::from_value($v)
    };
    (@stub_ret_conv (remote $R:ident) $v:ident ($conn:expr)) => {{
        let __id = $crate::__rt::expect_remote_ref($v)?;
        ::core::result::Result::Ok($crate::StubCtor::from_remote_ref(
            $crate::__rt::RemoteRef::from_parts($conn.clone(), __id),
        ))
    }};
    (@stub_ret_conv (array $R:ident) $v:ident ($conn:expr)) => {{
        let __ids = $crate::__rt::expect_ref_list($v)?;
        ::core::result::Result::Ok(
            __ids
                .into_iter()
                .map(|__id| {
                    <<dyn $R as $crate::Companions>::Stub as $crate::StubCtor>::from_remote_ref(
                        $crate::__rt::RemoteRef::from_parts($conn.clone(), __id),
                    )
                })
                .collect(),
        )
    }};

    (@b_arg_val (v $T:ty) $a:ident) => {
        $crate::RecordArg::Value($crate::__rt::ToValue::into_value($a))
    };
    (@b_arg_val (r $R:ident) $a:ident) => {
        $a.record_arg()
    };

    (@b_call (value $T:ty) ($recv:expr) ($name:expr) $args:ident) => {
        $recv.call_future::<$T>($name, $args)
    };
    (@b_call (void) ($recv:expr) ($name:expr) $args:ident) => {
        $recv.call_future::<()>($name, $args)
    };
    (@b_call (remote $R:ident) ($recv:expr) ($name:expr) $args:ident) => {
        $crate::BatchCtor::from_stub($recv.call_remote($name, $args))
    };
    (@b_call (array $R:ident) ($recv:expr) ($name:expr) $args:ident) => {
        $crate::CursorCtor::from_cursor($recv.call_cursor($name, $args))
    };
}
